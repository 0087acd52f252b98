#pragma once
/// \file engine.hpp
/// Unified execution engine: one abstraction over "how do N ranks run".
///
/// The drivers in this repository (the MACSio dump loop, the AMReX plotfile
/// writer) are SPMD programs: every rank executes the same body, synchronizing
/// through a small set of collectives and MIF baton messages. Drivers are
/// written once against `RankCtx` (rank id, barrier, a rooted one-value
/// gather, tagged token and byte-payload send/recv) plus the group ship
/// helpers built on it (`gatherv_group`/`scatterv_group`), and an `Engine`
/// decides how the ranks execute. There are two:
///
///  * `EventEngine` — the in-process engine, used everywhere by default:
///    zero threads, deterministic discrete-event scheduling. Ranks are
///    virtual (no per-rank stack or thread — suspended ranks are compact
///    stack slices in arena pools), collectives are batched events resolved
///    when the last participant arrives, and the scheduler's ready queue
///    makes each step O(active events) rather than O(nranks). It serves the
///    calibrator's many 8–64-rank replays and 100k+-rank machine-scale dumps
///    alike.
///  * `SpmdEngine`  — real concurrency: one OS thread per rank via
///    `simmpi::run_spmd`, collectives through the shared-memory communicator.
///    It is the reference the event engine is checked against (byte and
///    statistics parity in tests/test_exec.cpp and tests/test_event_engine.cpp)
///    and what ThreadSanitizer runs. Fails fast above a configurable thread
///    cap (see `SpmdEngine::thread_cap`) instead of exhausting the machine
///    mid-run.
///
/// Because both engines run the *same* driver body, their runs are
/// byte-identical by construction.
///
/// Error semantics mirror `simmpi::run_spmd`: if any rank throws, peers
/// blocked on a collective or recv observe `simmpi::CommAborted` and
/// `Engine::run` rethrows the first rank's exception.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/probe.hpp"
#include "simmpi/comm.hpp"

namespace amrio::obs {
class SelfProfiler;
}

namespace amrio::exec {

/// Per-rank execution context handed to the driver body. Provides the
/// collective operations the I/O drivers need; every rank must call the same
/// collectives in the same order (MPI SPMD discipline).
class RankCtx {
 public:
  virtual ~RankCtx() = default;

  virtual int rank() const = 0;
  virtual int nranks() const = 0;

  /// Synchronize all ranks.
  virtual void barrier() = 0;
  /// Gather one value per rank to `root` (root receives nranks() values in
  /// rank order; other ranks receive an empty vector).
  virtual std::vector<std::uint64_t> gather(std::uint64_t v, int root) = 0;
  /// Tagged point-to-point token (the MIF baton): buffered send.
  virtual void send_token(std::uint64_t value, int dest, int tag) = 0;
  /// Blocking tagged token receive.
  virtual std::uint64_t recv_token(int src, int tag) = 0;
  /// Tagged point-to-point byte payload (staging shipments to aggregators):
  /// buffered send, message boundaries preserved. The buffer is handed over:
  /// the event engine, whose mailboxes live in process memory, moves it into
  /// the mailbox, so the receiver gets the very allocation the sender filled;
  /// the simmpi communicator copies it into its own message storage. A
  /// caller that keeps its bytes passes a copy.
  virtual void send_bytes(std::vector<std::byte> data, int dest, int tag) = 0;
  /// Blocking tagged byte-payload receive (one message).
  virtual std::vector<std::byte> recv_bytes(int src, int tag) = 0;
};

/// Receives one gathered payload at the root: the member's rank id and the
/// member's bytes, handed over (the callee owns them and may drop them).
using PayloadFn = std::function<void(int member, std::vector<std::byte> payload)>;

/// Streaming group gatherv over point-to-point messages: every rank in
/// `members` (strictly ascending rank ids) contributes `mine`; at `root`
/// (which must be a member) `on_payload` runs once per member, in member
/// order, as each message arrives — the root's own `mine` at its member
/// position. Other members only send and never call `on_payload`. This is
/// *not* a global collective — only the listed members participate, so
/// several aggregation groups can gather concurrently. This is the two-phase collective the staging layer uses to
/// ship task documents to aggregators: the root consumes (writes) each
/// payload before it receives the next, so it never holds the whole group.
/// A non-empty `probe` counts the ship on the metrics registry
/// (exec.gatherv.{calls,messages,bytes}, root side) — pure commutative
/// counter adds, so the snapshot stays engine-invariant.
/// `mine` is taken by value and handed over: members send it with the
/// moving `send_bytes`, the root passes it to `on_payload`, so a caller
/// that moves its buffer in has it copied nowhere on the in-process engines.
void gatherv_group(RankCtx& ctx, std::vector<std::byte> mine,
                   std::span<const int> members, int root, int tag,
                   const PayloadFn& on_payload, obs::Probe probe = {});

/// Group scatterv — `gatherv_group` in reverse, the read-side ship: `root`
/// holds one payload per member (member order, so payloads.size() ==
/// members.size() at the root and is ignored elsewhere) and fans them back
/// out over point-to-point messages; every member returns its own payload.
/// Like gatherv_group this is not a global collective — several restage
/// groups can scatter concurrently. Byte-conserving: the concatenation of
/// what the members receive equals the concatenation of what the root held.
/// `probe` counts exec.scatterv.{calls,messages,bytes} on the root side.
/// `payloads` is taken by value and moved out — outbound ones through the
/// moving `send_bytes`, the root's own as the return value.
std::vector<std::byte> scatterv_group(
    RankCtx& ctx, std::vector<std::vector<std::byte>> payloads,
    std::span<const int> members, int root, int tag, obs::Probe probe = {});

using RankFn = std::function<void(RankCtx&)>;

/// An execution substrate for SPMD driver bodies.
class Engine {
 public:
  virtual ~Engine() = default;
  virtual int nranks() const = 0;
  /// Human-readable engine name ("event", "spmd") for reports.
  virtual const char* name() const = 0;
  /// Execute `fn` once per rank. Blocks until every rank finishes; rethrows
  /// the first rank exception, if any.
  virtual void run(const RankFn& fn) = 0;

  /// Attach a host-side self-profiler (see obs/selfprof.hpp). Each run()
  /// publishes wall seconds plus engine-specific counters (the event
  /// engine: events processed, context switches, ready-queue high-water,
  /// SliceArena bytes). Null (the default) disables publication; engines
  /// buffer hot-loop counts locally either way, so there is no per-event
  /// synchronization cost.
  void set_profiler(obs::SelfProfiler* prof) { profiler_ = prof; }
  obs::SelfProfiler* profiler() const { return profiler_; }

 protected:
  obs::SelfProfiler* profiler_ = nullptr;
};

/// Thread-per-rank engine over simmpi::run_spmd.
class SpmdEngine final : public Engine {
 public:
  /// Throws (ContractViolation) when `nranks` exceeds `thread_cap()` — one OS
  /// thread per rank does not survive machine-scale rank counts, and dying on
  /// pthread_create mid-run loses the error; the message points at
  /// `--engine=event` instead.
  explicit SpmdEngine(int nranks);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "spmd"; }
  void run(const RankFn& fn) override;

  /// Most ranks this engine will agree to run as real threads. Defaults to
  /// 1024; override with the AMRIO_SPMD_THREAD_CAP environment variable
  /// (read per construction, so tests can adjust it).
  static int thread_cap();

 private:
  int nranks_;
};

/// Discrete-event engine: virtual ranks on one shared execution stack.
///
/// A rank runs on the shared stack until it blocks (collective arrival or an
/// empty mailbox); its live stack slice — typically a few KiB — is copied
/// into a size-classed arena pool and the stack is reused, so a 516k-rank
/// dump costs megabytes of engine state plus the suspended slices instead of
/// 516k fiber stacks or OS threads. Wake-ups go through a FIFO ready queue
/// (collective release wakes arrivals in order, a send wakes exactly the
/// matching receiver), and fresh ranks start only when nothing is ready, so
/// one scheduling step is O(1) and a full run is O(total events), not
/// O(nranks) per step. Deterministic by construction; byte- and stats-parity
/// with SpmdEngine is asserted by tests/test_event_engine.cpp.
///
/// Restrictions (checked): nranks < 2^24 and p2p tags in [0, 65535] — the
/// mailbox key packs (src, dst, tag) into 64 bits. Under Address- or
/// ThreadSanitizer or on non-x86-64 targets the engine transparently falls
/// back to pooled per-rank ucontext fibers (same semantics, more memory per
/// suspended rank).
/// A single-rank run needs no special case: collectives release on arrival,
/// and p2p calls fail their precondition (there is no peer to address).
class EventEngine final : public Engine {
 public:
  /// `exec_stack_bytes` sizes the shared execution stack (the deepest live
  /// rank must fit; the default leaves ample room for the plotfile and
  /// MACSio writer bodies). Under the ucontext fallback it is the size of
  /// each pooled fiber stack.
  explicit EventEngine(int nranks, std::size_t exec_stack_bytes = 256 * 1024);
  int nranks() const override { return nranks_; }
  const char* name() const override { return "event"; }
  void run(const RankFn& fn) override;

 private:
  int nranks_;
  std::size_t stack_bytes_;
};

/// `kSerial` is not an engine: it is only the label ("serial") of one half
/// of the Table III campaign grid's engine axis (campaign::table3_grid), kept
/// so existing cell keys stay stable, and make_engine builds an EventEngine
/// for it. Dropping the axis changes the campaign benchmark's definition and
/// is left to a change that re-records its digest.
enum class EngineKind { kSerial, kSpmd, kEvent };

/// kEvent and kSerial build an EventEngine, kSpmd a SpmdEngine.
std::unique_ptr<Engine> make_engine(EngineKind kind, int nranks);

/// CLI surface for the `--engine` knob: "event" | "spmd".
/// Throws std::invalid_argument on anything else, naming the valid values.
EngineKind engine_kind_from_name(const std::string& name);
const char* engine_kind_name(EngineKind kind);

}  // namespace amrio::exec
