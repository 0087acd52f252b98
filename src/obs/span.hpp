#pragma once
/// \file span.hpp
/// Virtual-time span tracing for the staging pipeline. A Span is an interval
/// on the *simulated* clock (the same clock `IoResult`/`DumpStats` report),
/// owned by a rank track, optionally nested under a parent span and linked to
/// other spans by happens-before edges (absorb→drain, prefetch→bb_read).
///
/// Determinism contract — the same one `iostats::TraceRecorder::events()`
/// gives: ranks append to sharded, contention-free sinks; span ids are
/// `(rank+1) << 32 | per-rank-seq`, so they depend only on per-rank program
/// order (engine-invariant); `spans()` merges the sinks under a total order.
/// The merged stream is byte-identical across the event and spmd engines for
/// the same configuration.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace amrio::obs {

/// One stage interval on the virtual clock. `rank == -1` is the driver /
/// phase track (dump/restart boundaries). `wait` is the portion of the
/// interval spent blocked on `resource` (drain stream slot, BB capacity,
/// OST service, NIC...) — the critical-path analyzer aggregates it to name
/// the binding resource of a configuration.
struct Span {
  std::uint64_t id = 0;      ///< assigned by Tracer::record
  std::uint64_t parent = 0;  ///< 0 = top-level on its track
  int rank = -1;
  std::string stage;     ///< taxonomy name: "encode", "ship", "bb_drain", ...
  std::string detail;    ///< free-form qualifier ("dump 3", "ckpt/g0002", ...)
  double start = 0.0;    ///< virtual seconds
  double end = 0.0;      ///< virtual seconds, >= start
  double wait = 0.0;     ///< seconds of the interval blocked on `resource`
  std::string resource;  ///< what `wait` waited on; empty if wait == 0
  double service = 0.0;  ///< seconds of the interval served by `res`
  /// ResourceLedger id of the pool that served this span ("ost[3]",
  /// "bb[0].drain", "agg_link", "codec_cpu", ...); empty = untagged. The
  /// what-if engine (whatif.hpp) scales `service`/`wait` by matching this
  /// id (and `resource`) against a relief scenario's resource group.
  std::string res;
};

/// Happens-before between two recorded spans (cross-rank or cross-stage).
struct SpanEdge {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

/// The rank track a span id belongs to (inverse of the id layout).
inline int span_rank(std::uint64_t id) {
  return static_cast<int>(static_cast<std::int64_t>(id >> 32)) - 1;
}

/// Abstract destination for recorded spans. Instrumentation sites only ever
/// `record` and `edge`; what happens to the span afterwards — buffered in
/// memory (`Tracer`) or streamed through bounded buffers to a file
/// (`TraceStream`, stream.hpp) — is the sink's business. Every sink assigns
/// ids with the same `(rank+1) << 32 | per-rank-seq` rule, so the id a site
/// gets back is independent of the sink implementation.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  /// Record a span; assigns and returns its id. `s.id` is ignored on input.
  /// Ids are deterministic given per-rank program order.
  virtual std::uint64_t record(Span s) = 0;

  /// Record a happens-before edge between two previously recorded spans.
  virtual void edge(std::uint64_t from, std::uint64_t to) = 0;
};

/// Contention-free span collector. Thread-safe: ranks hash to one of
/// `nsinks` sinks (mixed hash, see shard.hpp) and only contend within a
/// shard. Snapshot accessors merge deterministically.
class Tracer : public SpanSink {
 public:
  explicit Tracer(std::size_t nsinks = 64);

  std::uint64_t record(Span s) override;

  void edge(std::uint64_t from, std::uint64_t to) override;

  /// Deterministic merged snapshot, ordered by (start, rank, id).
  std::vector<Span> spans() const;

  /// Deterministic merged edge list, ordered by (from, to).
  std::vector<SpanEdge> edges() const;

  std::size_t nsinks() const { return sinks_.size(); }

 private:
  struct Sink {
    std::mutex mu;
    std::vector<Span> spans;
    std::vector<SpanEdge> edges;
    std::map<int, std::uint32_t> next_seq;  // per-rank sequence numbers
  };
  Sink& sink_for(int rank);

  std::vector<std::unique_ptr<Sink>> sinks_;
};

}  // namespace amrio::obs
