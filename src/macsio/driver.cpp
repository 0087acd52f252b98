#include "macsio/driver.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "codec/codec.hpp"
#include "macsio/interfaces.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "staging/aggregator.hpp"
#include "util/assert.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace amrio::macsio {

std::vector<double> DumpStats::cumulative() const {
  std::vector<double> out;
  out.reserve(bytes_per_dump.size());
  double acc = 0.0;
  for (auto b : bytes_per_dump) {
    acc += static_cast<double>(b);
    out.push_back(acc);
  }
  return out;
}

namespace {

/// Output-file naming of an interface: the tag in `macsio_<tag>_...`
/// (the paper's `macsio_json_{task}_{step}.json` pattern for json) and the
/// data-file extension.
struct FileNaming {
  const char* tag;
  const char* extension;
};

FileNaming file_naming(Interface kind) {
  switch (kind) {
    case Interface::kMiftmpl: return {"json", "json"};
    case Interface::kH5Lite: return {"h5", "h5"};
    case Interface::kRaw: return {"raw", "bin"};
  }
  throw std::invalid_argument("macsio: bad interface");
}

/// `<output_dir>/<dir>/macsio_<tag>_<middle><dump:03d>.<extension>`.
std::string output_path(const Params& p, const char* dir,
                        std::string_view middle, int dump,
                        const char* extension) {
  std::string out = p.output_dir;
  out += '/';
  out += dir;
  out += "/macsio_";
  out += file_naming(p.interface).tag;
  out += '_';
  out += middle;
  out += util::zero_pad(static_cast<std::uint64_t>(dump), 3);
  out += '.';
  out += extension;
  return out;
}

/// File group of an unaggregated rank: MIF shares mif_files files
/// contiguously (one per task when 0); SIF is one global group.
int file_group(const Params& p, int rank) {
  if (p.file_mode == FileMode::kSif) return 0;
  const int nfiles = (p.mif_files == 0) ? p.nprocs : p.mif_files;
  return static_cast<int>((static_cast<std::int64_t>(rank) * nfiles) / p.nprocs);
}

// Fixed-width index layout: 55-byte header + one 58-byte line per task
// ("ggggggg ttttttt <offset:20> <bytes:20>\n") — exactly computable, see
// aggregated_index_bytes(). Group/task fields are 7 digits so the index
// stays fixed-width at machine-scale rank counts (nprocs <= 9,999,999).
std::string agg_index_text(const Params& p, const staging::AggTopology& topo,
                           int dump,
                           const std::vector<std::uint64_t>& task_bytes) {
  std::string out = "macsio-agg-index dump " +
                    util::zero_pad(static_cast<std::uint64_t>(dump), 3) +
                    " groups " +
                    util::zero_pad(static_cast<std::uint64_t>(topo.ngroups()), 7) +
                    " ranks " +
                    util::zero_pad(static_cast<std::uint64_t>(p.nprocs), 7) +
                    "\n";
  out.reserve(out.size() + 58 * static_cast<std::size_t>(p.nprocs));
  for (int g = 0; g < topo.ngroups(); ++g) {
    std::uint64_t offset = 0;
    for (int r : topo.members_of(g)) {
      const std::uint64_t b = task_bytes[static_cast<std::size_t>(r)];
      out += util::zero_pad(static_cast<std::uint64_t>(g), 7) + " " +
             util::zero_pad(static_cast<std::uint64_t>(r), 7) + " " +
             util::zero_pad(offset, 20) + " " + util::zero_pad(b, 20) + "\n";
      offset += b;
    }
  }
  return out;
}

}  // namespace

std::string root_meta_text(const Params& p, int dump, const PartSpec& spec,
                           std::uint64_t dump_bytes) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.key("tool").value("macsio-amrio");
  w.key("interface").value(to_string(p.interface));
  w.key("parallel_file_mode").value(to_string(p.file_mode));
  w.key("dump").value(static_cast<std::int64_t>(dump));
  w.key("num_dumps").value(static_cast<std::int64_t>(p.num_dumps));
  w.key("nprocs").value(static_cast<std::int64_t>(p.nprocs));
  w.key("part_nx").value(static_cast<std::int64_t>(spec.nx));
  w.key("part_ny").value(static_cast<std::int64_t>(spec.ny));
  w.key("vars_per_part").value(static_cast<std::int64_t>(spec.nvars));
  w.key("part_size_request").value(p.part_bytes_at_dump(dump));
  w.key("dataset_growth").value(p.dataset_growth);
  w.key("dump_bytes").value(dump_bytes);
  w.end_object();
  os << '\n';
  return os.str();
}

std::string dump_file_path(const Params& p, int rank, int dump) {
  if (p.aggregators > 0) {
    const auto topo = staging::AggTopology::make(p.nprocs, p.aggregators);
    return aggregated_file_path(p, topo.group_of(rank), dump);
  }
  const char* ext = file_naming(p.interface).extension;
  if (p.file_mode == FileMode::kSif)
    return output_path(p, "data", "shared_", dump, ext);
  const std::string group =
      util::zero_pad(static_cast<std::uint64_t>(file_group(p, rank)), 5) + "_";
  return output_path(p, "data", group, dump, ext);
}

std::string root_file_path(const Params& p, int dump) {
  return output_path(p, "metadata", "root_", dump, "json");
}

std::string aggregated_file_path(const Params& p, int group, int dump) {
  const std::string middle =
      "agg_" + util::zero_pad(static_cast<std::uint64_t>(group), 5) + "_";
  return output_path(p, "data", middle, dump,
                     file_naming(p.interface).extension);
}

std::string aggregated_index_path(const Params& p, int dump) {
  return output_path(p, "metadata", "index_", dump, "txt");
}

std::uint64_t aggregated_index_bytes(const Params& p) {
  // header "macsio-agg-index dump DDD groups GGGGGGG ranks RRRRRRR\n" = 55
  // bytes; per-task line "GGGGGGG TTTTTTT <offset:20> <bytes:20>\n" = 58.
  return 55 + 58 * static_cast<std::uint64_t>(p.nprocs);
}

namespace {

/// `p` after the checks every run makes once, before any rank starts.
const Params& checked(const Params& p, const exec::Engine& engine,
                      const char* caller) {
  p.validate();
  AMRIO_EXPECTS_MSG(engine.nranks() == p.nprocs,
                    caller << ": engine ranks " << engine.nranks()
                           << " != nprocs " << p.nprocs);
  return p;
}

/// What every rank of one run_macsio / run_restart call shares: a pure
/// function of the parameters, built once before the engine starts and
/// handed to every rank body read-only, as the restage plan is.
struct RunPlan {
  RunPlan(const Params& p, const exec::Engine& engine, const char* caller,
          bool from_bb)
      : params(checked(p, engine, caller)),
        iface(make_interface(p.interface)),
        agg_cfg{p.aggregators, p.agg_link_bandwidth, 1.0e-6},
        tier(from_bb ? pfs::kTierBurstBuffer : pfs::kTierPfs) {
    const codec::CodecSpec spec = p.codec_spec();
    cdc = codec::make_codec(spec);
    encoded = spec.enabled();
    if (p.aggregators > 0)
      topo = staging::AggTopology::make(p.nprocs, p.aggregators);
    specs.reserve(static_cast<std::size_t>(p.num_dumps));
    for (int dump = 0; dump < p.num_dumps; ++dump)
      specs.push_back(
          make_part_spec(p.part_bytes_at_dump(dump), p.vars_per_part));
  }

  bool aggregated() const { return topo.has_value(); }

  const Params& params;
  std::unique_ptr<IoInterface> iface;
  /// The in-situ codec stage. Codecs are stateless, so one instance serves
  /// every rank.
  std::unique_ptr<codec::Codec> cdc;
  bool encoded = false;  ///< a non-identity codec is on
  std::optional<staging::AggTopology> topo;  ///< set when aggregated
  staging::AggregationConfig agg_cfg;
  /// Tier the run's data requests target: the dump's write tier, or the
  /// restart's read tier.
  int tier;
  std::vector<PartSpec> specs;  ///< part geometry per dump
};

/// One aggregation group's traffic over its link, for a dump's gatherv or a
/// restart's scatterv: the members' encoded documents, of which all but the
/// aggregator's own cross the link.
struct GroupShip {
  int aggregator = 0;
  std::uint64_t subfile_encoded = 0;  ///< every member's encoded bytes
  std::uint64_t shipped = 0;          ///< the bytes that cross the link
  int messages = 0;
  double gate = 0.0;  ///< slowest member's codec cpu
  double cost = 0.0;  ///< link time of `shipped` in `messages` sends
  /// The bandwidth part of `cost` only: the per-message latency term does
  /// not shrink when the link gets faster, so the what-if engine must not
  /// scale it.
  double link_service = 0.0;

  /// When the group's data has crossed the link, for members that start
  /// encoding at `submit`.
  double ready(double submit) const { return (submit + gate) + cost; }
};

/// The ship schedule of every group. `doc(r)` is rank r's document as a
/// codec::CompressResult: out_bytes cross the link, cpu_seconds gate it.
template <class DocOf>
std::vector<GroupShip> ship_schedule(const RunPlan& run, DocOf&& doc) {
  const staging::AggTopology& topo = *run.topo;
  std::vector<GroupShip> ships(static_cast<std::size_t>(topo.ngroups()));
  for (int g = 0; g < topo.ngroups(); ++g) {
    GroupShip& s = ships[static_cast<std::size_t>(g)];
    s.aggregator = topo.aggregator_of_group(g);
    const int end = s.aggregator + topo.group_size(g);
    for (int r = s.aggregator; r < end; ++r) {
      const codec::CompressResult& d = doc(r);
      s.subfile_encoded += d.out_bytes;
      s.gate = std::max(s.gate, d.cpu_seconds);
      if (r != s.aggregator) {
        s.shipped += d.out_bytes;
        ++s.messages;
      }
    }
    s.cost = staging::ship_cost(run.agg_cfg, s.shipped, s.messages);
    s.link_service =
        static_cast<double>(s.shipped) / run.agg_cfg.link_bandwidth;
  }
  return ships;
}

/// The single SPMD dump-loop body shared by every execution mode. Rank 0
/// accumulates the full statistics and returns them; other ranks return
/// empty stats.
DumpStats run_macsio_rank(exec::RankCtx& ctx, const RunPlan& run,
                          pfs::StorageBackend& backend,
                          iostats::TraceRecorder* trace, obs::Probe probe) {
  const Params& params = run.params;
  const IoInterface& iface = *run.iface;
  const codec::Codec& cdc = *run.cdc;
  const int rank = ctx.rank();
  constexpr int kBatonTag = 41;
  constexpr int kShipTag = 73;

  DumpStats stats;
  if (rank == 0) {
    stats.task_bytes.assign(static_cast<std::size_t>(params.num_dumps),
                            std::vector<std::uint64_t>(
                                static_cast<std::size_t>(params.nprocs), 0));
  }

  for (int dump = 0; dump < params.num_dumps; ++dump) {
    const PartSpec& spec = run.specs[static_cast<std::size_t>(dump)];
    const double submit_time = dump * params.compute_time;
    util::Xoshiro256 rng(params.seed ^
                         (static_cast<std::uint64_t>(dump) << 20) ^
                         static_cast<std::uint64_t>(rank));
    // `written` is this rank's task-document bytes, gathered below either way.
    std::uint64_t written = 0;

    auto serialize_task_doc = [&](Sink& sink) {
      iface.begin_task_doc(sink, rank, dump);
      const int nparts = params.parts_of_rank(rank);
      for (int part = 0; part < nparts; ++part) {
        if (part > 0) iface.part_separator(sink);
        iface.write_part(sink, spec, part, params.fill, rng);
      }
      iface.end_task_doc(sink, params.meta_size);
    };

    if (run.aggregated()) {
      // Two-phase aggregation: serialize into memory, encode through the
      // codec stage, ship to the group's aggregator, and let only the
      // aggregator touch the file system — the encoded documents cross the
      // link, the aggregator writes their payloads, and the subfile holds the
      // group's task documents concatenated in rank order, byte-identical to
      // what the members would have written themselves.
      //
      // One materialization per document: the buffer is sized exactly up
      // front (task_doc_bytes plus the codec's header headroom), sealed in
      // place, moved through the ship, and written from a payload view.
      const int group = run.topo->group_of(rank);
      const int agg = run.topo->aggregator_of_group(group);
      const std::size_t headroom = cdc.header_bytes();
      std::vector<std::byte> doc;
      doc.reserve(headroom +
                  iface.task_doc_bytes(spec, rank, dump,
                                       params.parts_of_rank(rank),
                                       params.meta_size));
      doc.resize(headroom);
      VectorSink vsink(doc);
      serialize_task_doc(vsink);
      written = vsink.bytes();
      (void)cdc.seal(doc);
      // The aggregator streams: it writes each payload as it arrives and
      // drops it before the next receive. It is its group's first rank, so
      // on the event engine (woken ranks resume before fresh ones start) at
      // most about two documents per group are live at once.
      std::string path;
      std::optional<pfs::OutFile> out;
      if (rank == agg) {
        path = aggregated_file_path(params, group, dump);
        out.emplace(backend, path);
      }
      std::uint64_t encoded_bytes = 0;
      double codec_cpu = 0.0;
      exec::gatherv_group(
          ctx, std::move(doc), run.topo->members_of(group), agg, kShipTag,
          [&](int, std::vector<std::byte> payload) {
            if (run.encoded) {
              const codec::CompressResult enc = cdc.peek(payload);
              encoded_bytes += enc.out_bytes;
              codec_cpu += enc.cpu_seconds;
            }
            out->write(cdc.payload(payload));
          },
          probe);
      if (rank == agg) {
        const std::uint64_t subfile_bytes = out->bytes_written();
        out->close();  // surface flush errors (destructor closes quietly)
        if (trace != nullptr)
          trace->record_encoded_write(dump, 0, rank, path, subfile_bytes,
                                      encoded_bytes, codec_cpu, run.tier,
                                      group);
      }
    } else {
      const std::string path = dump_file_path(params, rank, dump);

      // MIF baton: within a file group, members write strictly in rank order.
      // SIF is one global group. The leader truncates; followers append after
      // receiving the baton from their predecessor.
      const int group = file_group(params, rank);
      const bool leader = rank == 0 || file_group(params, rank - 1) != group;
      const bool same_file_successor =
          rank + 1 < params.nprocs && file_group(params, rank + 1) == group;

      if (!leader) {
        (void)ctx.recv_token(rank - 1, kBatonTag);
      }
      {
        pfs::OutFile out(backend, path,
                         leader ? pfs::OpenMode::kTruncate
                                : pfs::OpenMode::kAppend);
        FileSink sink(out);
        serialize_task_doc(sink);
        written = out.bytes_written();
        out.close();  // surface flush errors (destructor closes quietly)
      }
      if (same_file_successor) {
        ctx.send_token(written, rank + 1, kBatonTag);
      }
      if (trace != nullptr) {
        const codec::CompressResult enc =
            run.encoded ? cdc.plan(written) : codec::CompressResult{};
        trace->record_encoded_write(dump, 0, rank, path, written,
                                    enc.out_bytes, enc.cpu_seconds, run.tier,
                                    -1);
      }
    }

    // Gather per-rank byte counts so rank 0 can write the root metadata and
    // accumulate statistics — this is MACSio's end-of-dump collective.
    const auto all_bytes = ctx.gather(written, 0);
    ctx.barrier();

    if (rank == 0) {
      const std::size_t req_begin = stats.requests.size();
      std::uint64_t dump_bytes = 0;
      // Per-task codec results, re-derived deterministically from the raw
      // byte counts (plan is a pure function of size) — one chunk per doc.
      std::vector<codec::CompressResult> encs(
          static_cast<std::size_t>(params.nprocs));
      for (int r = 0; r < params.nprocs; ++r) {
        const std::uint64_t b = all_bytes[static_cast<std::size_t>(r)];
        stats.task_bytes[static_cast<std::size_t>(dump)][static_cast<std::size_t>(r)] = b;
        dump_bytes += b;
        encs[static_cast<std::size_t>(r)] = cdc.plan(b);
        stats.codec.add(dump, -1, encs[static_cast<std::size_t>(r)]);
        if (!run.aggregated()) {
          // Encoded bytes hit the filesystem; the encode cpu delays submit.
          const auto& enc = encs[static_cast<std::size_t>(r)];
          stats.requests.push_back(pfs::IoRequest{
              r, submit_time + enc.cpu_seconds,
              dump_file_path(params, r, dump), enc.out_bytes, run.tier});
        }
      }
      // One ship per group: every member encodes its document
      // (concurrently — the slowest encode gates the group), then the
      // encoded bytes cross the interconnect to the aggregator.
      std::vector<GroupShip> ships;
      if (run.aggregated()) {
        ships = ship_schedule(
            run, [&](int r) { return encs[static_cast<std::size_t>(r)]; });
        // One request per subfile, submitted once its ship has landed.
        for (int g = 0; g < run.topo->ngroups(); ++g) {
          const GroupShip& s = ships[static_cast<std::size_t>(g)];
          stats.requests.push_back(pfs::IoRequest{
              s.aggregator, s.ready(submit_time),
              aggregated_file_path(params, g, dump), s.subfile_encoded,
              run.tier});
        }
      }
      // The root document reports the dump's task-data total, aggregated or
      // not — the index (written below) is bookkeeping on top of it.
      const std::string root_path = root_file_path(params, dump);
      const std::string root = root_meta_text(params, dump, spec, dump_bytes);
      {
        pfs::OutFile root_out(backend, root_path);
        root_out.write(root);
        root_out.close();
      }
      if (run.aggregated()) {
        // Rank 0 writes the per-dump index locating every task document.
        const std::string index_path = aggregated_index_path(params, dump);
        const std::string index =
            agg_index_text(params, *run.topo, dump, all_bytes);
        AMRIO_ENSURES(index.size() == aggregated_index_bytes(params));
        {
          pfs::OutFile index_out(backend, index_path);
          index_out.write(index);
          index_out.close();
        }
        dump_bytes += index.size();
        if (trace != nullptr)
          trace->record_staged_write(dump, -1, 0, index_path, index.size(),
                                     run.tier, -1);
        stats.requests.push_back(
            pfs::IoRequest{0, submit_time, index_path, index.size(), run.tier});
      }
      dump_bytes += root.size();
      if (trace != nullptr)
        trace->record_staged_write(dump, -1, 0, root_path, root.size(),
                                   run.tier, -1);
      stats.requests.push_back(
          pfs::IoRequest{0, submit_time, root_path, root.size(), run.tier});
      stats.bytes_per_dump.push_back(dump_bytes);
      stats.total_bytes += dump_bytes;

      if (probe.metrics) {
        probe.metrics->add("macsio.dumps", 1);
        probe.metrics->add("macsio.dump_bytes",
                           static_cast<std::int64_t>(dump_bytes));
      }
      if (probe.tracer) {
        // Span emission happens here, on rank 0, from the same pure plan()
        // results the requests were built from — per-rank program order is
        // engine-invariant, so the merged stream is byte-identical across
        // the event and spmd engines.
        const std::string label = "dump " + std::to_string(dump);
        double phase_end = submit_time;
        for (std::size_t i = req_begin; i < stats.requests.size(); ++i)
          phase_end = std::max(phase_end, stats.requests[i].submit_time);
        const std::uint64_t phase = probe.tracer->record(
            obs::Span{0, 0, -1, "dump", label, submit_time, phase_end});
        std::vector<std::uint64_t> encode_span(
            static_cast<std::size_t>(params.nprocs), 0);
        for (int r = 0; r < params.nprocs; ++r) {
          const double cpu = encs[static_cast<std::size_t>(r)].cpu_seconds;
          if (cpu <= 0.0) continue;
          obs::Span es;
          es.parent = phase;
          es.rank = r;
          es.stage = "encode";
          es.detail = label;
          es.start = submit_time;
          es.end = submit_time + cpu;
          es.service = cpu;
          es.res = "codec_cpu";
          encode_span[static_cast<std::size_t>(r)] =
              probe.tracer->record(std::move(es));
        }
        for (std::size_t g = 0; g < ships.size(); ++g) {
          const GroupShip& s = ships[g];
          const double ship_start = submit_time + s.gate;
          const double ready = s.ready(submit_time);
          if (ready <= ship_start) continue;
          obs::Span ss;
          ss.parent = phase;
          ss.rank = s.aggregator;
          ss.stage = "ship";
          ss.detail = label;
          ss.start = ship_start;
          ss.end = ready;
          ss.resource = "agg_link";
          ss.service = s.link_service;
          ss.res = "agg_link";
          const std::uint64_t ship = probe.tracer->record(std::move(ss));
          for (int r : run.topo->members_of(static_cast<int>(g))) {
            const std::uint64_t from =
                encode_span[static_cast<std::size_t>(r)];
            if (from != 0) probe.tracer->edge(from, ship);
          }
        }
      }
      if (probe.ledger) {
        // Pool view of the same plan() results: the codec CPU pool (one lane
        // per rank) holds lanes for their encode seconds, the agg link pool
        // (one link per group) for the ship window. Every lane's encode ends
        // inside the epoch, so the makespan covers it; a group's ship starts
        // after its slowest member's encode, so for aggregated dumps this
        // never moves the makespan past the ship windows.
        obs::ResourceLedger& lg = *probe.ledger;
        lg.declare("codec_cpu", params.nprocs);
        double cpu_total = 0.0;
        for (int r = 0; r < params.nprocs; ++r) {
          const double cpu = encs[static_cast<std::size_t>(r)].cpu_seconds;
          cpu_total += cpu;
          lg.extend_makespan(submit_time + cpu);
        }
        lg.add_busy("codec_cpu", cpu_total);
        if (run.aggregated()) {
          lg.declare("agg_link", run.topo->ngroups());
          for (const GroupShip& s : ships) {
            lg.add_busy("agg_link", s.cost);
            lg.extend_makespan(s.ready(submit_time));
          }
        }
      }
    }
    ctx.barrier();
  }

  if (rank == 0) {
    // files: count distinct paths actually produced
    std::set<std::string> files;
    for (const auto& req : stats.requests) files.insert(req.file);
    stats.nfiles = files.size();
  }
  return stats;
}

/// The restage plan of a restart: a pure function of the parameters
/// (task_doc_bytes is exact, codec plans are pure in the raw size), so it is
/// built once per run_restart and shared read-only by every rank — restart
/// read sizes are predicted byte-exactly the same way write sizes are, with
/// nothing read yet.
staging::RestagePlan build_restage_plan(const RunPlan& run) {
  const Params& params = run.params;
  const int dump = params.num_dumps - 1;
  const PartSpec& spec = run.specs[static_cast<std::size_t>(dump)];
  std::vector<std::string> files(static_cast<std::size_t>(params.nprocs));
  std::vector<std::uint64_t> doc_bytes(
      static_cast<std::size_t>(params.nprocs));
  for (int r = 0; r < params.nprocs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    files[i] = run.aggregated()
                   ? aggregated_file_path(params, run.topo->group_of(r), dump)
                   : dump_file_path(params, r, dump);
    doc_bytes[i] = run.iface->task_doc_bytes(
        spec, r, dump, params.parts_of_rank(r), params.meta_size);
  }
  return staging::make_restage_plan(files, doc_bytes, *run.cdc,
                                    run.aggregated() ? &*run.topo : nullptr);
}

/// The single SPMD restart body: the dump loop in reverse for the last
/// written dump, reading through the shared `plan`. Rank 0 returns the full
/// statistics; other ranks return empty stats.
RestartStats run_restart_rank(exec::RankCtx& ctx, const RunPlan& run,
                              const staging::RestagePlan& plan,
                              pfs::StorageBackend& backend,
                              iostats::TraceRecorder* trace, obs::Probe probe) {
  const Params& params = run.params;
  const codec::Codec& cdc = *run.cdc;
  const int rank = ctx.rank();
  constexpr int kRestageTag = 74;
  const int dump = params.num_dumps - 1;  // restart from the last checkpoint
  const bool aggregated = run.aggregated();
  const staging::RestageSlice& mine =
      plan.slices[static_cast<std::size_t>(rank)];

  const bool contents = backend.stores_contents();
  auto validate_extent = [&](const staging::RestageExtent& e) {
    AMRIO_EXPECTS_MSG(
        backend.exists(e.file),
        "run_restart: dump file missing (run the dump loop first): "
            << e.file);
    AMRIO_ENSURES_MSG(backend.size(e.file) == e.raw_bytes,
                      "run_restart: " << e.file
                                      << " drifted from the planned size");
  };
  const staging::RestageExtent& my_extent = plan.extents[mine.extent];

  // Byte path: recover this rank's task document. `doc` views the recovered
  // raw bytes inside `held` (the received container, or the ranged read).
  std::vector<std::byte> held;
  std::span<const std::byte> doc;
  if (aggregated) {
    // Two-phase in reverse: the aggregator fetches the whole subfile, slices
    // it at the planned offsets, re-encodes each member's document for the
    // wire (sealed in place behind header headroom), and moves them back out
    // over scatterv_group; every member views its own payload — encoded
    // bytes cross the link, raw bytes come back.
    const int group = run.topo->group_of(rank);
    const int agg = run.topo->aggregator_of_group(group);
    const auto members = run.topo->members_of(group);
    std::vector<std::vector<std::byte>> payloads;
    if (rank == agg) {
      validate_extent(my_extent);
      // Accounting-only backends degrade to exact sizes of zero bytes — the
      // same contract StagingBackend's accounting-mode drain keeps — so the
      // zero-filled pieces need no subfile to copy from.
      const std::vector<std::byte> subfile =
          contents ? backend.read(my_extent.file) : std::vector<std::byte>{};
      const std::size_t headroom = cdc.header_bytes();
      payloads.reserve(members.size());
      for (int r : members) {
        const auto& s = plan.slices[static_cast<std::size_t>(r)];
        std::vector<std::byte> piece(headroom + s.raw_bytes);
        if (contents)
          std::copy_n(subfile.begin() + static_cast<std::ptrdiff_t>(s.offset),
                      s.raw_bytes,
                      piece.begin() + static_cast<std::ptrdiff_t>(headroom));
        (void)cdc.seal(piece);
        payloads.push_back(std::move(piece));
      }
    }
    held = exec::scatterv_group(ctx, std::move(payloads), members, agg,
                                kRestageTag, probe);
    doc = cdc.payload(held);
  } else {
    // Every rank reads its own byte range of its dump file (concurrent
    // readers of a shared MIF-group/SIF file need no baton — nothing is
    // mutated, and the ranged read keeps a 128-rank SIF restart from
    // materializing the whole shared image once per rank).
    validate_extent(my_extent);
    held = contents
               ? backend.read_range(mine.file, mine.offset, mine.raw_bytes)
               : std::vector<std::byte>(mine.raw_bytes);
    doc = held;
  }
  AMRIO_ENSURES_MSG(doc.size() == mine.raw_bytes,
                    "run_restart: recovered document size mismatch on rank "
                        << rank);

  if (trace != nullptr)
    trace->record_read(dump, 0, rank, mine.file, mine.raw_bytes,
                       run.encoded ? mine.encoded_bytes : 0,
                       mine.decode_seconds, run.tier,
                       aggregated ? run.topo->group_of(rank) : -1);

  const auto all_bytes =
      ctx.gather(static_cast<std::uint64_t>(doc.size()), 0);
  const auto all_hash = ctx.gather(restart_hash(doc), 0);
  ctx.barrier();

  RestartStats stats;
  if (rank == 0) {
    stats.dump = dump;
    stats.task_bytes = all_bytes;
    stats.task_hash = all_hash;
    stats.slices = plan.slices;
    for (int r = 0; r < params.nprocs; ++r) {
      const staging::RestageSlice& s = plan.slices[static_cast<std::size_t>(r)];
      AMRIO_ENSURES_MSG(
          all_bytes[static_cast<std::size_t>(r)] == s.raw_bytes,
          "run_restart: read-back not byte-conserving on rank " << r);
      stats.codec.add_decode(dump, -1, cdc.plan(s.raw_bytes),
                             s.decode_seconds);
    }
    stats.raw_bytes = plan.raw_bytes();
    stats.encoded_bytes = plan.encoded_bytes();
    stats.decode_gate = plan.decode_gate();
    // The dump's ship in reverse: each group's encoded documents fan back
    // out from its aggregator, and the slowest scatter gates the restart.
    std::vector<GroupShip> ships;
    if (aggregated) {
      ships = ship_schedule(run, [&](int r) {
        const staging::RestageSlice& s = plan.slices[static_cast<std::size_t>(r)];
        return codec::CompressResult{s.raw_bytes, s.encoded_bytes,
                                     s.decode_seconds};
      });
      for (const GroupShip& s : ships)
        stats.scatter_seconds = std::max(stats.scatter_seconds, s.cost);
    }
    // When rank r's document has arrived: its group's scatter cost
    // (aggregated) or the restart epoch (direct reads are timed by the SimFs
    // replay instead).
    auto arrival = [&](int r) {
      return aggregated
                 ? ships[static_cast<std::size_t>(run.topo->group_of(r))].cost
                 : 0.0;
    };
    stats.requests = plan.read_requests(0.0, params.restart_from_bb);
    // Metadata read-back: the root document, and under aggregation the index
    // locating every task document — always cold PFS reads (metadata never
    // stages).
    if (trace != nullptr)
      for (const auto& req : stats.requests)
        if (req.op == pfs::kOpPrefetch)
          trace->record_prefetch(
              dump, 0, req.client, req.file, req.bytes, req.tier,
              aggregated ? run.topo->group_of(req.client) : -1);
    auto read_meta = [&](const std::string& path) {
      const std::uint64_t meta_bytes = backend.size(path);
      stats.requests.push_back(pfs::IoRequest{0, 0.0, path, meta_bytes,
                                              pfs::kTierPfs, pfs::kOpRead});
      if (trace != nullptr)
        trace->record_read(dump, -1, 0, path, meta_bytes, 0, 0.0,
                           pfs::kTierPfs, -1);
    };
    read_meta(root_file_path(params, dump));
    if (aggregated) read_meta(aggregated_index_path(params, dump));

    if (probe.metrics) {
      probe.metrics->add("macsio.restarts", 1);
      probe.metrics->add("restart.raw_bytes",
                         static_cast<std::int64_t>(stats.raw_bytes));
      probe.metrics->add("restart.encoded_bytes",
                         static_cast<std::int64_t>(stats.encoded_bytes));
    }
    if (probe.tracer) {
      // Dump-side instrumentation in reverse, emitted by rank 0 from the
      // pure restage plan — engine-invariant like the dump spans.
      const std::string label = "restart " + std::to_string(dump);
      double phase_end = 0.0;
      for (int r = 0; r < params.nprocs; ++r)
        phase_end = std::max(
            arrival(r) + plan.slices[static_cast<std::size_t>(r)].decode_seconds,
            phase_end);
      const std::uint64_t phase = probe.tracer->record(
          obs::Span{0, 0, -1, "restart", label, 0.0, phase_end});
      std::vector<std::uint64_t> scatter_span(ships.size(), 0);
      for (std::size_t g = 0; g < ships.size(); ++g) {
        const GroupShip& s = ships[g];
        if (s.cost <= 0.0) continue;
        obs::Span sc;
        sc.parent = phase;
        sc.rank = s.aggregator;
        sc.stage = "scatter";
        sc.detail = label;
        sc.start = 0.0;
        sc.end = s.cost;
        sc.resource = "agg_link";
        sc.service = s.link_service;
        sc.res = "agg_link";
        scatter_span[g] = probe.tracer->record(std::move(sc));
      }
      for (int r = 0; r < params.nprocs; ++r) {
        const double decode =
            plan.slices[static_cast<std::size_t>(r)].decode_seconds;
        if (decode <= 0.0) continue;
        obs::Span ds;
        ds.parent = phase;
        ds.rank = r;
        ds.stage = "decode";
        ds.detail = label;
        ds.start = arrival(r);
        ds.end = arrival(r) + decode;
        ds.service = decode;
        ds.res = "codec_cpu";
        const std::uint64_t span = probe.tracer->record(std::move(ds));
        if (aggregated) {
          const std::uint64_t from =
              scatter_span[static_cast<std::size_t>(run.topo->group_of(r))];
          if (from != 0) probe.tracer->edge(from, span);
        }
      }
    }
    if (probe.ledger) {
      obs::ResourceLedger& lg = *probe.ledger;
      lg.declare("codec_cpu", params.nprocs);
      double decode_total = 0.0;
      for (int r = 0; r < params.nprocs; ++r) {
        const double decode =
            plan.slices[static_cast<std::size_t>(r)].decode_seconds;
        decode_total += decode;
        lg.extend_makespan(arrival(r) + decode);
      }
      lg.add_busy("codec_cpu", decode_total);
      if (aggregated) {
        lg.declare("agg_link", run.topo->ngroups());
        for (const GroupShip& s : ships) lg.add_busy("agg_link", s.cost);
      }
    }
  }
  ctx.barrier();
  return stats;
}

}  // namespace

std::uint64_t restart_hash(std::span<const std::byte> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ull;
  }
  return h;
}

RestartStats run_restart(exec::Engine& engine, const Params& params,
                         pfs::StorageBackend& backend,
                         iostats::TraceRecorder* trace, obs::Probe probe) {
  const RunPlan run(params, engine, "run_restart", params.restart_from_bb);
  const staging::RestagePlan plan = build_restage_plan(run);
  RestartStats result;
  engine.run([&](exec::RankCtx& ctx) {
    RestartStats local =
        run_restart_rank(ctx, run, plan, backend, trace, probe);
    if (ctx.rank() == 0) result = std::move(local);
  });
  return result;
}

DumpStats run_macsio(exec::Engine& engine, const Params& params,
                     pfs::StorageBackend& backend,
                     iostats::TraceRecorder* trace, obs::Probe probe) {
  const RunPlan run(params, engine, "run_macsio", params.stage_to_bb);
  DumpStats result;
  engine.run([&](exec::RankCtx& ctx) {
    DumpStats local = run_macsio_rank(ctx, run, backend, trace, probe);
    if (ctx.rank() == 0) result = std::move(local);
  });
  return result;
}

DumpStats run_macsio(const Params& params, pfs::StorageBackend& backend,
                     iostats::TraceRecorder* trace, obs::Probe probe) {
  exec::EventEngine engine(params.nprocs);
  return run_macsio(engine, params, backend, trace, probe);
}

}  // namespace amrio::macsio
