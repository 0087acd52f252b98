/// Light deterministic fuzzing: random byte corruption of plotfiles fed to
/// the reader, random token streams fed to the parsers, corrupted and
/// truncated campaign cache files and sealed codec containers. The invariant
/// under test is "throws or returns, never crashes or hangs" — the property a
/// production reader of foreign files must satisfy. Where a reader throws,
/// the error names its source ("json: ...", "campaign cache: ...",
/// "codec '<name>': ...").

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "codec/codec.hpp"
#include "macsio/params.hpp"
#include "plotfile/fab_io.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/writer.hpp"
#include "util/format.hpp"
#include "util/inputs.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace pf = amrio::plotfile;
namespace p = amrio::pfs;
namespace m = amrio::mesh;

namespace {

/// A valid two-level plotfile in a content-retaining backend.
std::unique_ptr<p::MemoryBackend> make_valid_plotfile(
    std::vector<m::MultiFab>& storage) {
  auto be = std::make_unique<p::MemoryBackend>(true);
  m::BoxArray ba0(m::Box(0, 0, 15, 15));
  m::BoxArray ba1(m::Box(8, 8, 23, 23));
  auto dm0 = m::DistributionMapping::make(ba0, 2, m::DistributionStrategy::kSfc);
  auto dm1 = m::DistributionMapping::make(ba1, 2, m::DistributionStrategy::kSfc);
  storage.emplace_back(ba0, dm0, 2, 0);
  storage.emplace_back(ba1, dm1, 2, 0);
  storage[0].set_val(1.0);
  storage[1].set_val(2.0);
  const m::Geometry g0(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "fz_plt00000";
  spec.var_names = {"a", "b"};
  pf::write_plotfile(*be, spec,
                     {{g0, &storage[0]}, {g0.refine(2), &storage[1]}});
  return be;
}

}  // namespace

class ReaderFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ReaderFuzz, CorruptedBytesNeverCrash) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 4099);
  std::vector<m::MultiFab> storage;
  auto be = make_valid_plotfile(storage);
  const auto files = be->list("fz_plt00000");
  ASSERT_FALSE(files.empty());

  for (int trial = 0; trial < 20; ++trial) {
    // pick a file, corrupt 1-16 random bytes, try to read the plotfile
    const auto& victim = files[rng.uniform_int(files.size())];
    auto bytes = be->read(victim);
    if (bytes.empty()) continue;
    const int nflips = 1 + static_cast<int>(rng.uniform_int(16));
    for (int k = 0; k < nflips; ++k) {
      const std::size_t pos = rng.uniform_int(bytes.size());
      bytes[pos] = static_cast<std::byte>(rng.uniform_int(256));
    }
    {
      p::OutFile out(*be, victim);
      out.write(std::span<const std::byte>(bytes.data(), bytes.size()));
    }
    try {
      const auto pf_in = pf::read_plotfile(*be, "fz_plt00000");
      // a surviving read must at least be self-consistent
      EXPECT_EQ(pf_in.levels.size(),
                static_cast<std::size_t>(pf_in.finest_level + 1));
    } catch (const std::exception&) {
      // rejection is the expected outcome
    }
    // restore for the next trial
    storage.clear();
    be = make_valid_plotfile(storage);
  }
}

TEST_P(ReaderFuzz, TruncationsNeverCrash) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::vector<m::MultiFab> storage;
  auto be = make_valid_plotfile(storage);
  for (const auto& victim : be->list("fz_plt00000")) {
    const auto bytes = be->read(victim);
    const std::size_t cut = rng.uniform_int(bytes.size() + 1);
    {
      p::OutFile out(*be, victim);
      out.write(std::span<const std::byte>(bytes.data(), cut));
    }
    try {
      (void)pf::read_plotfile(*be, "fz_plt00000");
    } catch (const std::exception&) {
    }
    // restore
    {
      p::OutFile out(*be, victim);
      out.write(std::span<const std::byte>(bytes.data(), bytes.size()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReaderFuzz, ::testing::Range(1, 7));

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, InputsFileNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  static constexpr const char kChars[] =
      "abcdefghijklmnop.=# 0123456789\n\t-_+e";
  for (int trial = 0; trial < 50; ++trial) {
    std::string text;
    const std::size_t len = rng.uniform_int(400);
    for (std::size_t i = 0; i < len; ++i)
      text += kChars[rng.uniform_int(sizeof(kChars) - 1)];
    try {
      const auto in = amrio::util::InputsFile::from_string(text);
      // surviving parse: getters must throw cleanly, not crash
      for (const auto& key : in.keys()) {
        try {
          (void)in.get_double(key);
        } catch (const std::exception&) {
        }
      }
    } catch (const std::exception&) {
    }
  }
}

TEST_P(ParserFuzz, MacsioCliNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  const std::vector<std::string> vocab{
      "--interface", "miftmpl",  "hdf5",      "--parallel_file_mode",
      "MIF",         "SIF",      "8",         "--num_dumps",
      "20",          "-3",       "--part_size", "1.5M",
      "xyz",         "--dataset_growth", "1.01", "99",
      "--nprocs",    "0",        "--meta_size", "4K"};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::string> args;
    const std::size_t len = rng.uniform_int(8);
    for (std::size_t i = 0; i < len; ++i)
      args.push_back(vocab[rng.uniform_int(vocab.size())]);
    try {
      (void)amrio::macsio::Params::from_cli(args);
    } catch (const std::exception&) {
    }
  }
}

TEST_P(ParserFuzz, FabHeaderNeverCrashes) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 271828);
  for (int trial = 0; trial < 50; ++trial) {
    std::string junk = "FAB ";
    const std::size_t len = rng.uniform_int(120);
    for (std::size_t i = 0; i < len; ++i)
      junk += static_cast<char>(32 + rng.uniform_int(95));
    junk += "\n";
    std::size_t offset = 0;
    try {
      (void)pf::parse_fab_header(
          std::as_bytes(std::span<const char>(junk.data(), junk.size())),
          offset);
    } catch (const std::exception&) {
    }
  }
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// A saved ResultCache with a few entries (string and number fields of
/// every kind the loader reads), as the bytes of its JSON file.
std::string valid_cache_text(const std::string& path) {
  amrio::campaign::ResultCache cache;
  for (int i = 0; i < 3; ++i) {
    amrio::campaign::CellResult r;
    r.raw_bytes = 1000u + static_cast<std::uint64_t>(i);
    r.encoded_bytes = 400u + static_cast<std::uint64_t>(i);
    r.total_bytes = 1100;
    r.nfiles = 8;
    r.dump_seconds = 0.25 * (i + 1);
    r.critical_stage = "ost \"write\"\n";
    r.binding_resource = "bb_drain";
    r.restart_seconds = 1.5e-3;
    cache.insert("cell/" + std::to_string(i), r);
  }
  cache.save(path);
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

/// Parse `text` directly and load it as a cache file: each must either
/// succeed or throw std::runtime_error naming the json parser or the cache.
void expect_cache_contained(const std::string& path, const std::string& text) {
  try {
    (void)amrio::util::parse_json(text);
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(starts_with(e.what(), "json: ")) << e.what();
  }
  write_text(path, text);
  amrio::campaign::ResultCache cache;
  try {
    const std::size_t loaded = cache.load(path);
    EXPECT_LE(loaded, 3u);
    EXPECT_LE(cache.size(), loaded);  // a corrupted key may repeat another
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(starts_with(e.what(), "json: ") ||
                starts_with(e.what(), "campaign cache: "))
        << e.what();
  }
}

}  // namespace

TEST_P(ParserFuzz, CorruptedCampaignCacheIsContained) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  const std::string path = testing::TempDir() + "fuzz_cache_" +
                           std::to_string(GetParam()) + ".json";
  const std::string valid = valid_cache_text(path);
  ASSERT_GT(valid.size(), 100u);
  static constexpr const char kJsonChars[] = "{}[]\":,.-+eE0123456789\\ntu";
  for (int trial = 0; trial < 60; ++trial) {
    std::string text = valid;
    const int nflips = 1 + static_cast<int>(rng.uniform_int(16));
    for (int k = 0; k < nflips; ++k) {
      const std::size_t pos = rng.uniform_int(text.size());
      // half the flips use JSON structure characters, which reach deeper
      // into the grammar than arbitrary bytes
      text[pos] = rng.uniform_int(2) == 0
                      ? kJsonChars[rng.uniform_int(sizeof(kJsonChars) - 1)]
                      : static_cast<char>(rng.uniform_int(256));
    }
    expect_cache_contained(path, text);
  }
  std::remove(path.c_str());
}

TEST_P(ParserFuzz, TruncatedCampaignCacheIsContained) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 15485863);
  const std::string path = testing::TempDir() + "fuzz_cache_cut_" +
                           std::to_string(GetParam()) + ".json";
  const std::string valid = valid_cache_text(path);
  // the document proper ends at its closing brace; trailing whitespace after
  // it may go without harm
  const std::size_t doc_end = valid.find_last_not_of(" \n") + 1;
  for (int trial = 0; trial < 40; ++trial) {
    const std::string text = valid.substr(0, rng.uniform_int(doc_end));
    // every proper prefix of the document is malformed
    EXPECT_THROW((void)amrio::util::parse_json(text), std::runtime_error);
    expect_cache_contained(path, text);
  }
  std::remove(path.c_str());
}

TEST_P(ParserFuzz, DeeplyNestedJsonIsRejectedNotOverflowed) {
  // Unbounded recursion would overflow the stack on a hostile file; the
  // parser caps nesting depth and reports it.
  const std::size_t depth = 20000u * static_cast<std::size_t>(GetParam());
  for (const char open : {'[', '{'}) {
    std::string text(depth, open);
    if (open == '{') {
      text.clear();
      for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
    }
    try {
      (void)amrio::util::parse_json(text);
      FAIL() << "unterminated nesting parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
          << e.what();
    }
  }
}

TEST_P(ParserFuzz, CorruptedCodecContainerIsContained) {
  namespace cd = amrio::codec;
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 7727);
  for (const char* name : {"identity", "lossless", "ebl"}) {
    SCOPED_TRACE(name);
    cd::CodecSpec spec;
    spec.name = name;
    const auto codec = cd::make_codec(spec);
    std::vector<std::byte> raw(1 + rng.uniform_int(300));
    for (auto& b : raw) b = static_cast<std::byte>(rng.uniform_int(256));
    const std::size_t header = codec->header_bytes();
    std::vector<std::byte> sealed(header);
    sealed.insert(sealed.end(), raw.begin(), raw.end());
    (void)codec->seal(sealed);

    auto check = [&](const std::vector<std::byte>& blob) {
      const std::string prefix = std::string("codec '") + name + "': ";
      try {
        const auto body = codec->payload(blob);
        // an accepted blob yields a view inside it, of the size its header
        // promises
        EXPECT_GE(body.data(), blob.data());
        EXPECT_EQ(body.data() + body.size(), blob.data() + blob.size());
        EXPECT_EQ(codec->peek(blob).raw_bytes, body.size());
      } catch (const std::runtime_error& e) {
        EXPECT_TRUE(starts_with(e.what(), prefix.c_str())) << e.what();
        EXPECT_THROW((void)codec->peek(blob), std::runtime_error);
        return false;
      }
      return true;
    };

    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::byte> blob = sealed;
      const int nflips = 1 + static_cast<int>(rng.uniform_int(8));
      for (int k = 0; k < nflips; ++k) {
        // aim half the flips at the container header (magic, sizes, cpu)
        const std::size_t span =
            header > 0 && rng.uniform_int(2) == 0 ? header : blob.size();
        blob[rng.uniform_int(span)] =
            static_cast<std::byte>(rng.uniform_int(256));
      }
      (void)check(blob);
    }
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t cut = rng.uniform_int(sealed.size());
      const std::vector<std::byte> blob(
          sealed.begin(), sealed.begin() + static_cast<std::ptrdiff_t>(cut));
      // a truncated container disagrees with its recorded payload size (or
      // lost its header) and is always rejected; identity has no container
      // and accepts any bytes
      EXPECT_EQ(check(blob), header == 0) << "cut at " << cut;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 7));
