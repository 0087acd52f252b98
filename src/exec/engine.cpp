#include "exec/engine.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "util/assert.hpp"

namespace amrio::exec {

// ---------------------------------------------------------------- SpmdEngine

namespace {

/// SpmdEngine's rank context: one OS thread per rank, every operation
/// forwarded to the rank's simmpi communicator. Unlike the event engine's
/// in-process mailboxes, the communicator copies sent bytes into its own
/// message storage.
class CommCtx final : public RankCtx {
 public:
  explicit CommCtx(simmpi::Comm& comm) : comm_(&comm) {}
  int rank() const override { return comm_->rank(); }
  int nranks() const override { return comm_->size(); }
  void barrier() override { comm_->barrier(); }
  std::uint64_t exscan_sum(std::uint64_t v) override {
    return comm_->exscan_sum(v);
  }
  std::vector<std::uint64_t> gather(std::uint64_t v, int root) override {
    return comm_->gather(v, root);
  }
  std::vector<std::byte> gatherv(std::span<const std::byte> bytes,
                                 int root) override {
    return comm_->gatherv(bytes, root);
  }
  void send_token(std::uint64_t value, int dest, int tag) override {
    comm_->send(std::span<const std::uint64_t>(&value, 1), dest, tag);
  }
  std::uint64_t recv_token(int src, int tag) override {
    return comm_->recv<std::uint64_t>(src, tag).at(0);
  }
  void send_bytes(std::vector<std::byte> data, int dest, int tag) override {
    comm_->send(std::span<const std::byte>(data), dest, tag);
  }
  std::vector<std::byte> recv_bytes(int src, int tag) override {
    return comm_->recv<std::byte>(src, tag);
  }

 private:
  simmpi::Comm* comm_;
};

}  // namespace

int SpmdEngine::thread_cap() {
  constexpr int kDefaultCap = 1024;
  if (const char* env = std::getenv("AMRIO_SPMD_THREAD_CAP")) {
    const int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return kDefaultCap;
}

SpmdEngine::SpmdEngine(int nranks) : nranks_(nranks) {
  AMRIO_EXPECTS_MSG(nranks >= 1, "SpmdEngine needs at least one rank");
  // Fail fast with a usable message instead of letting pthread_create die on
  // resource exhaustion partway through spawning tens of thousands of threads.
  AMRIO_EXPECTS_MSG(
      nranks <= thread_cap(),
      "SpmdEngine: " << nranks << " ranks exceeds the thread cap of "
                     << thread_cap()
                     << " OS threads — use --engine=event for large rank "
                        "counts (or raise AMRIO_SPMD_THREAD_CAP)");
}

void SpmdEngine::run(const RankFn& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  simmpi::run_spmd(nranks_, [&fn](simmpi::Comm& comm) {
    CommCtx ctx(comm);
    fn(ctx);
  });
  if (profiler_ != nullptr) {
    profiler_->count("engine.spmd.runs", 1);
    profiler_->phase_add(
        "engine.spmd.run",
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
}

namespace {

/// Shared precondition of the group collectives: strictly ascending, in-range
/// members that include both the caller and the root.
void check_group(const RankCtx& ctx, std::span<const int> members, int root,
                 const char* what) {
  AMRIO_EXPECTS_MSG(!members.empty(), what << ": empty member list");
  bool in_group = false;
  bool root_in_group = false;
  for (std::size_t i = 0; i < members.size(); ++i) {
    AMRIO_EXPECTS_MSG(members[i] >= 0 && members[i] < ctx.nranks(),
                      what << ": member rank out of range");
    if (i > 0)
      AMRIO_EXPECTS_MSG(members[i] > members[i - 1],
                        what << ": members must be strictly ascending");
    if (members[i] == ctx.rank()) in_group = true;
    if (members[i] == root) root_in_group = true;
  }
  AMRIO_EXPECTS_MSG(in_group, what << ": calling rank not a member");
  AMRIO_EXPECTS_MSG(root_in_group, what << ": root not a member");
}

}  // namespace

void gatherv_group(RankCtx& ctx, std::vector<std::byte> mine,
                   std::span<const int> members, int root, int tag,
                   const PayloadFn& on_payload, obs::Probe probe) {
  check_group(ctx, members, root, "gatherv_group");
  if (ctx.rank() != root) {
    ctx.send_bytes(std::move(mine), root, tag);
    return;
  }
  std::uint64_t shipped = 0;
  std::int64_t nmessages = 0;
  for (int member : members) {
    if (member == root) {
      on_payload(member, std::move(mine));
      continue;
    }
    std::vector<std::byte> payload = ctx.recv_bytes(member, tag);
    shipped += payload.size();
    ++nmessages;
    on_payload(member, std::move(payload));
  }
  if (probe.metrics != nullptr) {
    probe.metrics->add("exec.gatherv.calls", 1);
    probe.metrics->add("exec.gatherv.messages", nmessages);
    probe.metrics->add("exec.gatherv.bytes",
                       static_cast<std::int64_t>(shipped));
  }
}

std::vector<std::byte> scatterv_group(
    RankCtx& ctx, std::vector<std::vector<std::byte>> payloads,
    std::span<const int> members, int root, int tag, obs::Probe probe) {
  check_group(ctx, members, root, "scatterv_group");
  if (ctx.rank() != root) return ctx.recv_bytes(root, tag);
  AMRIO_EXPECTS_MSG(payloads.size() == members.size(),
                    "scatterv_group: root needs one payload per member");
  std::vector<std::byte> mine;
  std::uint64_t shipped = 0;
  std::int64_t nmessages = 0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i] == root) {
      mine = std::move(payloads[i]);
      continue;
    }
    shipped += payloads[i].size();
    ++nmessages;
    ctx.send_bytes(std::move(payloads[i]), members[i], tag);
  }
  if (probe.metrics != nullptr) {
    probe.metrics->add("exec.scatterv.calls", 1);
    probe.metrics->add("exec.scatterv.messages", nmessages);
    probe.metrics->add("exec.scatterv.bytes",
                       static_cast<std::int64_t>(shipped));
  }
  return mine;
}

std::unique_ptr<Engine> make_engine(EngineKind kind, int nranks) {
  switch (kind) {
    case EngineKind::kSerial:  // grid label only: runs on the event engine
    case EngineKind::kEvent: return std::make_unique<EventEngine>(nranks);
    case EngineKind::kSpmd: return std::make_unique<SpmdEngine>(nranks);
  }
  throw std::invalid_argument("make_engine: unknown engine kind");
}

EngineKind engine_kind_from_name(const std::string& name) {
  if (name == "event") return EngineKind::kEvent;
  if (name == "spmd") return EngineKind::kSpmd;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (valid: event, spmd)");
}

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSerial: return "serial";
    case EngineKind::kSpmd: return "spmd";
    case EngineKind::kEvent: return "event";
  }
  return "unknown";
}

}  // namespace amrio::exec
