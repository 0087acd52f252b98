#include "macsio/interfaces.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/assert.hpp"
#include "util/format.hpp"

namespace amrio::macsio {

std::uint64_t IoInterface::task_doc_bytes(const PartSpec& spec, int rank,
                                          int dump, int nparts,
                                          std::uint64_t meta_size) const {
  CountingSink sink;
  util::Xoshiro256 rng(0);
  begin_task_doc(sink, rank, dump);
  for (int p = 0; p < nparts; ++p) {
    if (p > 0) part_separator(sink);
    write_part(sink, spec, p, FillMode::kSized, rng);
  }
  end_task_doc(sink, meta_size);
  return sink.bytes();
}

std::size_t format_json_value(char* buf, double v) {
  // std::to_chars with an explicit precision is specified to match printf;
  // it skips printf's format parsing and locale handling.
  const auto res = std::to_chars(buf, buf + kJsonValueBufBytes, v,
                                 std::chars_format::scientific, 17);
  return static_cast<std::size_t>(res.ptr - buf);
}

namespace {

// --------------------------------------------------------------- miftmpl

class MiftmplInterface final : public IoInterface {
 public:
  void begin_task_doc(Sink& sink, int rank, int dump) const override {
    sink.write("{\"task\":" + std::to_string(rank) +
               ",\"dump\":" + std::to_string(dump) + ",\"parts\":[");
  }

  void part_separator(Sink& sink) const override { sink.write(","); }

  void end_task_doc(Sink& sink, std::uint64_t meta_size) const override {
    sink.write("],\"meta\":\"");
    static const std::string kPad(4096, ' ');
    std::uint64_t remaining = meta_size;
    while (remaining > 0) {
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(remaining, kPad.size()));
      sink.write(std::string_view(kPad.data(), chunk));
      remaining -= chunk;
    }
    sink.write("\"}\n");
  }

  void write_part(Sink& sink, const PartSpec& spec, int part_id, FillMode fill,
                  util::Xoshiro256& rng) const override {
    sink.write("{\"part\":{\"id\":" + std::to_string(part_id) +
               ",\"nx\":" + std::to_string(spec.nx) +
               ",\"ny\":" + std::to_string(spec.ny) +
               ",\"nvars\":" + std::to_string(spec.nvars) + "},\"vars\":{");
    const std::uint64_t n = spec.values_per_var();
    char value_buf[kJsonValueBufBytes];
    // In sized mode all values are the same token, so one pre-built chunk is
    // replayed for every part of every call (this is what keeps repeated
    // calibration runs and many-small-parts dumps cheap).
    static const std::string zero_chunk = [] {
      char buf[kJsonValueBufBytes];
      const std::string token =
          std::string(buf, format_json_value(buf, 0.0)) + ",";
      AMRIO_ENSURES(token.size() == kJsonValueWidth + 1);
      std::string chunk;
      while (chunk.size() < (1u << 16)) chunk += token;
      return chunk;
    }();
    for (int v = 0; v < spec.nvars; ++v) {
      if (v > 0) sink.write(",");
      char name[32];
      std::snprintf(name, sizeof(name), "\"var%04d\":[", v);
      sink.write(name);
      if (fill == FillMode::kSized) {
        // n values, each 24 bytes including its trailing comma; the final
        // comma is replaced by the closing bracket below.
        std::uint64_t remaining = n * (kJsonValueWidth + 1);
        while (remaining > 0) {
          const std::size_t chunk = static_cast<std::size_t>(
              std::min<std::uint64_t>(remaining, zero_chunk.size()));
          sink.write(std::string_view(zero_chunk.data(), chunk));
          remaining -= chunk;
        }
      } else {
        std::string buf;
        buf.reserve(1 << 16);
        for (std::uint64_t i = 0; i < n; ++i) {
          format_json_value(value_buf, rng.uniform());
          buf.append(value_buf, kJsonValueWidth);
          buf.push_back(',');
          if (buf.size() >= (1u << 16)) {
            sink.write(buf);
            buf.clear();
          }
        }
        sink.write(buf);
      }
      // overwrite-style close: emit ']' in place of the final comma is not
      // possible on an append-only sink, so the encoding always ends the
      // value list with a trailing comma token then "null]" sentinel —
      // kept fixed-width by writing "null]" (5 bytes) after the last comma.
      sink.write("null]");
    }
    sink.write("}}");
  }
};

// ---------------------------------------------------------------- h5lite

class H5LiteInterface : public IoInterface {
 public:
  void begin_task_doc(Sink& sink, int rank, int dump) const override {
    char header[32];
    std::memcpy(header, "H5LITE01", 8);
    write_u32(header + 8, static_cast<std::uint32_t>(rank));
    write_u32(header + 12, static_cast<std::uint32_t>(dump));
    sink.write(std::as_bytes(std::span<const char>(header, 16)));
  }

  void part_separator(Sink&) const override {}

  void end_task_doc(Sink& sink, std::uint64_t meta_size) const override {
    static const std::vector<std::byte> kZeros(4096, std::byte{0});
    std::uint64_t remaining = meta_size;
    while (remaining > 0) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, kZeros.size()));
      sink.write(std::span<const std::byte>(kZeros.data(), chunk));
      remaining -= chunk;
    }
  }

  void write_part(Sink& sink, const PartSpec& spec, int part_id, FillMode fill,
                  util::Xoshiro256& rng) const override {
    char header[64];
    std::memcpy(header, "DSET", 4);
    write_u32(header + 4, static_cast<std::uint32_t>(part_id));
    write_u32(header + 8, static_cast<std::uint32_t>(spec.nx));
    write_u32(header + 12, static_cast<std::uint32_t>(spec.ny));
    write_u32(header + 16, static_cast<std::uint32_t>(spec.nvars));
    write_u32(header + 20, 1);  // dtype: 1 = float64
    sink.write(std::as_bytes(std::span<const char>(header, 24)));
    write_values(sink, spec.total_values(), fill, rng);
  }

 private:
  static void write_u32(char* dst, std::uint32_t v) {
    std::memcpy(dst, &v, sizeof(v));
  }

 protected:
  static void write_values(Sink& sink, std::uint64_t n, FillMode fill,
                           util::Xoshiro256& rng) {
    if (fill == FillMode::kSized) {
      static const std::vector<std::byte> kZeros(1 << 16, std::byte{0});
      std::uint64_t remaining = n * 8;
      while (remaining > 0) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, kZeros.size()));
        sink.write(std::span<const std::byte>(kZeros.data(), chunk));
        remaining -= chunk;
      }
      return;
    }
    std::vector<double> buf;
    buf.reserve(1 << 13);
    for (std::uint64_t i = 0; i < n; ++i) {
      buf.push_back(rng.uniform());
      if (buf.size() == (1u << 13)) {
        sink.write(std::as_bytes(std::span<const double>(buf)));
        buf.clear();
      }
    }
    if (!buf.empty()) sink.write(std::as_bytes(std::span<const double>(buf)));
  }
};

// ------------------------------------------------------------------ raw

class RawInterface final : public H5LiteInterface {
 public:
  void begin_task_doc(Sink&, int, int) const override {}

  void write_part(Sink& sink, const PartSpec& spec, int /*part_id*/,
                  FillMode fill, util::Xoshiro256& rng) const override {
    write_values(sink, spec.total_values(), fill, rng);
  }
};

}  // namespace

std::unique_ptr<IoInterface> make_interface(Interface kind) {
  switch (kind) {
    case Interface::kMiftmpl: return std::make_unique<MiftmplInterface>();
    case Interface::kH5Lite: return std::make_unique<H5LiteInterface>();
    case Interface::kRaw: return std::make_unique<RawInterface>();
  }
  throw std::invalid_argument("make_interface: bad kind");
}

}  // namespace amrio::macsio
