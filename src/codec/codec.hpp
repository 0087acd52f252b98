#pragma once
/// \file codec.hpp
/// In-situ compression modeling — the codec stage real pre-exascale AMR
/// stacks interpose before data leaves the node (AMRIC-style error-bounded
/// lossy compression of AMR data, ADIOS2-style operator pipelines). A `Codec`
/// answers two questions for every byte chunk the writers produce: how many
/// bytes travel/land after encoding, and how much compute the encode costs on
/// the writer's timeline. Three registered models:
///
///  * `identity` — out = raw, zero cpu: byte paths are exactly the staging
///    subsystem's PR-2 behaviour (the default everywhere).
///  * `lossless` — deflate-class compression of the fixed-width numeric text
///    our writers emit. The ratio is drawn *deterministically* from a
///    per-part-size model anchored on the paper's Eq. (3) part-size range
///    (80 kB default … 1.55 MB Listing-1 parts): larger documents expose more
///    redundancy to the entropy coder, so the ratio rises log-linearly
///    between the anchors, with a small size-hashed jitter standing in for
///    content variation. Same raw size → same encoded size, always.
///  * `ebl` — error-bounded lossy, AMRIC/SZ-style: a predictor+quantizer
///    whose residual width scales with field roughness. The modeled bits per
///    value are log2(roughness / error_bound) plus a fixed entropy-coder
///    overhead, so the ratio is a function of the error bound and the FAB
///    smoothness — estimated from real field data when contents are
///    available (`SmoothnessEstimator` over Sedov fabs, fed to `plan_with`),
///    otherwise taken from the configured/default smoothness.
///
/// Codecs are immutable and stateless after construction: one instance can
/// serve concurrent SPMD ranks.
///
/// Physical encoding wraps the raw payload in a small self-describing
/// container carrying the modeled result, so shipped/staged data round-trips
/// byte-exactly while every accounting point uses the modeled
/// `CompressResult::out_bytes` — a simulator compresses sizes and clocks,
/// not information. The container is built in place: a writer serializes
/// behind `header_bytes()` of headroom and `seal`s the header over it, a
/// reader views the payload inside the blob with `payload` and reads the
/// model back with `peek`. `encode_as` is the one copying form, for callers
/// that carry a content-aware result of their own.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace amrio::codec {

/// Outcome of encoding one chunk: the modeled wire/tier size and the modeled
/// compute cost that lands on the writer's timeline before submit.
struct CompressResult {
  std::uint64_t raw_bytes = 0;
  std::uint64_t out_bytes = 0;
  double cpu_seconds = 0.0;
  double ratio() const {
    return out_bytes > 0
               ? static_cast<double>(raw_bytes) / static_cast<double>(out_bytes)
               : 1.0;
  }
};

/// Incremental FAB-smoothness estimate over field values: 1 minus the mean
/// absolute second difference normalized by the value range — 1.0 for
/// constant/linear fields, approaching 0 for noise at the value-range scale.
/// Feed it every component span of a rank's fabs, then read `value()`.
class SmoothnessEstimator {
 public:
  void add(std::span<const double> values);
  /// Smoothness in [0, 1]; the ebl default when nothing was added.
  double value() const;
  std::uint64_t samples() const { return count_; }

 private:
  double sum_abs_dd_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t count_ = 0;  ///< second-difference samples
  bool any_ = false;
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual const std::string& name() const = 0;

  /// Deterministic size/cost model from the raw size alone — the prediction
  /// path (rank 0 re-deriving encoded sizes from gathered raw counts,
  /// `predict_plotfile`, accounting-mode staging) relies on this being a pure
  /// function of `raw_bytes`.
  virtual CompressResult plan(std::uint64_t raw_bytes) const = 0;

  /// Size/cost model with an explicit smoothness estimate in [0, 1]. Only
  /// `ebl` reads the smoothness; the others forward to `plan`.
  virtual CompressResult plan_with(std::uint64_t raw_bytes,
                                   double smoothness) const {
    (void)smoothness;
    return plan(raw_bytes);
  }

  /// Modeled decode cpu cost of restoring `raw_bytes` of original data —
  /// what a restart reader pays after fetching encoded bytes off the
  /// PFS/tier, before the solver resumes. A pure function of `raw_bytes`
  /// (like `plan`), distinct from the encode cost: decompressors run at a
  /// different (usually higher) throughput than compressors. Identity: 0.
  virtual double decode_seconds(std::uint64_t raw_bytes) const {
    (void)raw_bytes;
    return 0.0;
  }

  /// Container header size: the headroom a writer leaves in front of the
  /// raw payload so `seal` can encode in place. 32 for the modeling codecs,
  /// 0 for identity (its blob is the raw payload).
  virtual std::size_t header_bytes() const;
  /// Encode in place: `blob` holds `header_bytes()` of headroom followed by
  /// the raw payload; the container header (carrying `plan(payload size)`) is
  /// written over the headroom and the result returned. The sealed blob is
  /// byte-identical to `encode_as(payload, plan(payload size))`.
  virtual CompressResult seal(std::span<std::byte> blob) const;
  /// Validated view of the raw payload inside an encoded blob, without a
  /// copy. Throws std::runtime_error on a blob this codec did not produce or
  /// whose header disagrees with its payload size. Identity returns the blob
  /// itself.
  virtual std::span<const std::byte> payload(
      std::span<const std::byte> blob) const;

  /// Encode with a caller-computed result (content-aware callers: the
  /// plotfile hook measures FAB smoothness before shipping): a copy of `raw`
  /// behind a container that carries `result` verbatim, so `peek` at the
  /// receiver sees the same model and `payload` returns `raw` byte-exactly.
  /// The accounted size is `result.out_bytes`, not the blob size. Identity
  /// ignores the result and returns the raw bytes unchanged.
  virtual std::vector<std::byte> encode_as(std::span<const std::byte> raw,
                                           const CompressResult& result) const;
  /// The CompressResult embedded in an encoded blob (what the encoder
  /// modeled), without copying the payload. Identity plans the blob itself.
  virtual CompressResult peek(std::span<const std::byte> blob) const;
};

/// Selection + tuning of a codec stage; the cross-layer currency (MACSio
/// knobs, PlotfileSpec, StagingBackend all carry one).
struct CodecSpec {
  std::string name = "identity";
  /// ebl: relative error bound in (0, 1).
  double error_bound = 1.0e-3;
  /// ebl: optional per-variable error bounds (AMRIC-style: density may
  /// tolerate a looser bound than pressure). When non-empty, each task
  /// document is modeled as equal per-variable raw shares, each encoded
  /// under its own bound; `error_bound` is ignored. Empty = uniform bound.
  std::vector<double> var_error_bounds;
  /// Modeled encode throughput (bytes/sec); 0 = the codec's default.
  double throughput = 0.0;
  /// Modeled decode throughput (bytes/sec) for the restart read path; 0 =
  /// the codec's default (decoders typically outrun their encoders).
  double decode_throughput = 0.0;
  /// ebl: fixed smoothness in [0, 1]; negative = auto (estimate from field
  /// contents when available, else the codec default). Pin it when predict
  /// parity across data-free paths matters.
  double smoothness = -1.0;

  bool enabled() const { return name != "identity"; }
};

/// Registered codec names, in registry order: {"identity", "lossless", "ebl"}.
const std::vector<std::string>& codec_names();

/// Parse a comma-separated per-variable bound list ("1e-3,1e-5") into the
/// CodecSpec::var_error_bounds form. Empty input → empty vector. Throws
/// std::invalid_argument on malformed numbers or bounds outside (0, 1).
std::vector<double> parse_var_bounds(const std::string& csv);

/// Canonical string form of a bound list — the inverse of parse_var_bounds
/// (%.17g, comma-separated), used by CLI round-trips and cache keys.
std::string format_var_bounds(const std::vector<double>& bounds);

/// Build a codec from its spec. Throws std::invalid_argument with a one-line
/// message on an unknown name or an out-of-range error bound / throughput /
/// smoothness.
std::unique_ptr<Codec> make_codec(const CodecSpec& spec);

/// Validate spec fields without constructing (the CLI front-ends call this so
/// every layer rejects bad knobs identically). Throws std::invalid_argument.
void validate_spec(const CodecSpec& spec);

}  // namespace amrio::codec
