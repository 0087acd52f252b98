/// \file micro_engine_scaling.cpp
/// Engine/backend scaling microbench, two independent sweeps:
///
///  1. Backend contention (ranks {1, 4, 16, 64}): a raw concurrent write
///     storm and a full MIF N-to-N MACSio dump on the counting
///     MemoryBackend, comparing the sharded contention-free backend against
///     a faithful replica of the old design (one global mutex around one
///     std::map). Emits micro_engine_scaling.csv.
///
///  2. Execution-engine scaling (ranks 64 → 131072, and 516,096 with
///     --full): spmd vs event on three workload shapes — pure engine fabric
///     (spin-up + one barrier), a MIF N-to-N dump, and a fig11-shaped
///     aggregated dump (56-rank groups). Emits BENCH_engine.json (ranks ×
///     engine × wall-seconds and sim-ranks/sec) so the engine trajectory is
///     recorded as data, not prose; tools/bench_diff.py gates the event
///     rows' sim-ranks/sec. SpmdEngine rows stop at its thread cap; the
///     event engine runs the whole sweep — that asymmetry is the point.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "pfs/backend.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace amrio;

/// Replica of the pre-refactor MemoryBackend: a single mutex serializes every
/// create/write/close across all ranks. Kept here (not in src/) purely as the
/// bench baseline.
class GlobalMutexBackend final : public pfs::StorageBackend {
 public:
  pfs::FileHandle create(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    const pfs::FileHandle h = next_handle_++;
    open_files_[h] = path;
    files_[path] = Record{};
    return h;
  }
  pfs::FileHandle open_append(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    const pfs::FileHandle h = next_handle_++;
    open_files_[h] = path;
    files_.try_emplace(path);
    return h;
  }
  void write(pfs::FileHandle handle, std::span<const std::byte> data) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = open_files_.find(handle);
    if (it == open_files_.end())
      throw std::runtime_error("GlobalMutexBackend::write: bad handle");
    files_[it->second].bytes += data.size();
  }
  void close(pfs::FileHandle handle) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (open_files_.erase(handle) == 0)
      throw std::runtime_error("GlobalMutexBackend::close: bad handle");
  }
  bool exists(const std::string& path) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) != 0;
  }
  std::uint64_t size(const std::string& path) const override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.at(path).bytes;
  }
  std::vector<std::string> list(const std::string& prefix) const override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    for (const auto& [path, rec] : files_)
      if (util::starts_with(path, prefix)) out.push_back(path);
    return out;
  }
  std::vector<std::byte> read(const std::string&) const override {
    throw std::runtime_error("GlobalMutexBackend: counting only");
  }

 private:
  struct Record {
    std::uint64_t bytes = 0;
  };
  mutable std::mutex mu_;
  pfs::FileHandle next_handle_ = 1;
  std::map<pfs::FileHandle, std::string> open_files_;
  std::map<std::string, Record> files_;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// N ranks, each appending `writes` chunks of `chunk` bytes into its own
/// file — the N-to-N hot path with all serialization cost exposed.
double write_storm_seconds(pfs::StorageBackend& be, int nranks, int writes,
                           std::size_t chunk) {
  const std::vector<std::byte> payload(chunk, std::byte{0x5a});
  exec::SpmdEngine engine(nranks);
  const auto t0 = std::chrono::steady_clock::now();
  engine.run([&](exec::RankCtx& ctx) {
    pfs::OutFile out(be, "storm/rank_" + std::to_string(ctx.rank()));
    for (int i = 0; i < writes; ++i) out.write(payload);
  });
  return seconds_since(t0);
}

double dump_seconds(pfs::StorageBackend& be, int nranks, int num_dumps,
                    std::uint64_t part_size, double parts_per_rank) {
  macsio::Params params;
  params.nprocs = nranks;
  params.num_dumps = num_dumps;
  params.part_size = part_size;
  params.avg_num_parts = parts_per_rank;
  params.output_dir = "scaling_out";
  exec::SpmdEngine engine(nranks);
  const auto t0 = std::chrono::steady_clock::now();
  macsio::run_macsio(engine, params, be);
  return seconds_since(t0);
}

/// Median of `reps` timed runs of `fn` — wall-clock on an oversubscribed
/// machine is noisy, a single sample is not a measurement.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) t.push_back(fn());
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

// --- execution-engine sweep --------------------------------------------------

/// The workload shapes the engine sweep times. Each runs the same body on
/// every engine, so the ratio isolates pure scheduling/substrate cost.
enum class Workload { kSpinupBarrier, kMifDump, kAggDump };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSpinupBarrier: return "spinup_barrier";
    case Workload::kMifDump: return "mif_dump";
    case Workload::kAggDump: return "agg_dump";
  }
  return "?";
}

double engine_workload_seconds(exec::Engine& engine, Workload w, int ranks) {
  switch (w) {
    case Workload::kSpinupBarrier: {
      // Pure engine fabric: per-rank spin-up plus one global barrier. No
      // driver body, so this is the cost an engine *adds* to any study.
      const auto t0 = std::chrono::steady_clock::now();
      engine.run([](exec::RankCtx& ctx) { ctx.barrier(); });
      return seconds_since(t0);
    }
    case Workload::kMifDump:
    case Workload::kAggDump: {
      macsio::Params params;
      params.nprocs = ranks;
      params.num_dumps = 2;
      params.part_size = 2048;
      params.avg_num_parts = 1.0;
      params.output_dir = "scaling_out";
      if (w == Workload::kAggDump)  // fig11 shape: 56-rank node groups
        params.aggregators = std::max(1, ranks / 56);
      pfs::MemoryBackend be(false);
      const auto t0 = std::chrono::steady_clock::now();
      macsio::run_macsio(engine, params, be);
      return seconds_since(t0);
    }
  }
  return 0.0;
}

struct EngineRow {
  Workload workload;
  int ranks;
  exec::EngineKind engine;
  double seconds = 0.0;
  double ranks_per_sec = 0.0;
};

/// Which engines are worth timing at `ranks`: spmd stops at its thread cap,
/// the event engine runs every count.
bool engine_runs_at(exec::EngineKind kind, int ranks) {
  return kind != exec::EngineKind::kSpmd ||
         ranks <= exec::SpmdEngine::thread_cap();
}

}  // namespace

int main(int argc, char** argv) {
  const auto ctx = bench::parse_bench_args(
      argc, argv, "micro_engine_scaling",
      "engine/backend scaling: sharded vs global-mutex substrate, and "
      "spmd vs event execution engines");
  bench::banner("Engine scaling — I/O substrate and execution engines",
                "motivation for the unified exec engine (§II, Fig. 3 path)");

  // Write-dense settings: parts big enough that per-write backend cost
  // dominates the per-dump collectives even with heavily oversubscribed
  // threads, so the backend comparison is what the sweep actually measures.
  const int writes = ctx.full ? 60000 : 20000;
  const std::size_t chunk = 256;
  // The dump sweep uses the paper's many-parts-per-task MIF regime (small
  // parts, ~1k parts per rank): every part document is a burst of small
  // backend writes, so the substrate — not bulk formatting — is what the
  // sweep measures. The seed's backend re-walked one global std::map of
  // near-identical paths under one mutex on EVERY one of those writes.
  const int reps = 3;
  const int num_dumps = 32;
  const std::uint64_t part_size = 2048;
  const double parts_per_rank = 1024;

  util::TextTable storm({"ranks", "global-mutex MB/s", "sharded MB/s",
                         "speedup"});
  util::TextTable dumps({"ranks", "global-mutex MB/s", "sharded MB/s",
                         "speedup"});
  util::CsvWriter csv(bench::csv_path(ctx, "micro_engine_scaling.csv"));
  csv.header({"workload", "ranks", "global_mutex_mbps", "sharded_mbps",
              "speedup"});

  for (int ranks : {1, 4, 16, 64}) {
    {
      const double mb =
          static_cast<double>(ranks) * writes * chunk / 1e6;
      const double t_old = median_seconds(reps, [&] {
        GlobalMutexBackend old_be;
        return write_storm_seconds(old_be, ranks, writes, chunk);
      });
      const double t_new = median_seconds(reps, [&] {
        pfs::MemoryBackend new_be(false);
        return write_storm_seconds(new_be, ranks, writes, chunk);
      });
      storm.add_row({std::to_string(ranks), util::format_g(mb / t_old, 4),
                     util::format_g(mb / t_new, 4),
                     util::format_g(t_old / t_new, 3) + "x"});
      csv.row({"write_storm", std::to_string(ranks),
               std::to_string(mb / t_old), std::to_string(mb / t_new),
               std::to_string(t_old / t_new)});
    }
    {
      double mb = 0.0;
      const double t_old = median_seconds(reps, [&] {
        GlobalMutexBackend old_be;
        const double t =
            dump_seconds(old_be, ranks, num_dumps, part_size, parts_per_rank);
        mb = static_cast<double>(old_be.total_bytes()) / 1e6;
        return t;
      });
      const double t_new = median_seconds(reps, [&] {
        pfs::MemoryBackend new_be(false);
        return dump_seconds(new_be, ranks, num_dumps, part_size,
                            parts_per_rank);
      });
      dumps.add_row({std::to_string(ranks), util::format_g(mb / t_old, 4),
                     util::format_g(mb / t_new, 4),
                     util::format_g(t_old / t_new, 3) + "x"});
      csv.row({"mif_dump", std::to_string(ranks), std::to_string(mb / t_old),
               std::to_string(mb / t_new), std::to_string(t_old / t_new)});
    }
  }

  std::printf("raw write storm (%d writes x %zu B per rank, SpmdEngine):\n%s\n",
              writes, chunk, storm.to_string().c_str());
  std::printf("MIF N-to-N dump (run_macsio, %d dumps, part_size %llu, "
              "%.0f parts/rank, median of %d):\n%s\n",
              num_dumps, static_cast<unsigned long long>(part_size),
              parts_per_rank, reps, dumps.to_string().c_str());

  // --- execution-engine sweep: spmd vs event ---------------------------------
  std::vector<int> engine_ranks = {64, 512, 4096, 131072};
  if (ctx.full) engine_ranks.push_back(9216 * 56);  // the 516,096-rank case
  const exec::EngineKind kinds[] = {exec::EngineKind::kSpmd,
                                    exec::EngineKind::kEvent};
  const Workload workloads[] = {Workload::kSpinupBarrier, Workload::kMifDump,
                                Workload::kAggDump};

  std::vector<EngineRow> rows;
  util::TextTable engines({"workload", "ranks", "engine", "seconds",
                           "sim-ranks/s"});
  for (const Workload w : workloads) {
    for (const int ranks : engine_ranks) {
      for (const exec::EngineKind kind : kinds) {
        if (!engine_runs_at(kind, ranks)) continue;
        const int engine_reps = ranks <= 4096 ? reps : 1;
        EngineRow row;
        row.workload = w;
        row.ranks = ranks;
        row.engine = kind;
        row.seconds = median_seconds(engine_reps, [&] {
          const auto engine = exec::make_engine(kind, ranks);
          return engine_workload_seconds(*engine, w, ranks);
        });
        row.ranks_per_sec = static_cast<double>(ranks) / row.seconds;
        rows.push_back(row);
        engines.add_row({workload_name(w), std::to_string(ranks),
                         exec::engine_kind_name(kind),
                         util::format_g(row.seconds, 4),
                         util::format_g(row.ranks_per_sec, 5)});
      }
    }
  }
  std::printf("execution engines (same driver body per workload; spmd capped "
              "at %d threads):\n%s\n",
              exec::SpmdEngine::thread_cap(), engines.to_string().c_str());

  // BENCH_engine.json: the rows — the trajectory record CI uploads.
  const std::string json_path = bench::csv_path(ctx, "BENCH_engine.json");
  {
    std::ofstream out(json_path);
    util::JsonWriter w(out, /*pretty=*/true);
    w.begin_object();
    w.key("bench").value("micro_engine_scaling");
    w.key("mode").value(ctx.full ? "full" : "default");
    w.key("rows").begin_array();
    for (const EngineRow& row : rows) {
      w.begin_object();
      w.key("workload").value(workload_name(row.workload));
      w.key("ranks").value(static_cast<std::int64_t>(row.ranks));
      w.key("engine").value(exec::engine_kind_name(row.engine));
      w.key("seconds").value(row.seconds);
      w.key("sim_ranks_per_sec").value(row.ranks_per_sec);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
  }

  std::printf("CSV: %s\n", bench::csv_path(ctx, "micro_engine_scaling.csv").c_str());
  std::printf("JSON: %s\n", json_path.c_str());
  return 0;
}
