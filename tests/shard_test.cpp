// Sharded batch driver tests: partition properties, manifest parsing,
// byte-identical merges across shard counts, worker-failure isolation,
// deadline enforcement, and the merge golden.
//
// Fork-mode tests exec the real gana_shard binary (GANA_SHARD_BIN, a
// compile definition pointing at the example target) with the hidden
// --crash-after / --stall-after worker fault hooks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/corpus.hpp"
#include "primitives/library_io.hpp"
#include "shard/driver.hpp"
#include "shard/manifest.hpp"

namespace gana::shard {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// shard_partition

TEST(ShardPartition, CoversRangeContiguously) {
  for (std::size_t count : {0ul, 1ul, 7ul, 16ul, 100ul, 1001ul}) {
    for (std::size_t shards : {1ul, 2ul, 3ul, 8ul, 64ul}) {
      const auto parts = shard_partition(count, shards);
      if (count == 0) {
        EXPECT_TRUE(parts.empty());
        continue;
      }
      ASSERT_FALSE(parts.empty());
      EXPECT_EQ(parts.front().begin, 0u);
      EXPECT_EQ(parts.back().end, count);
      for (std::size_t i = 1; i < parts.size(); ++i) {
        EXPECT_EQ(parts[i].begin, parts[i - 1].end);
      }
    }
  }
}

TEST(ShardPartition, SizesDifferByAtMostOne) {
  const auto parts = shard_partition(103, 8);
  ASSERT_EQ(parts.size(), 8u);
  std::size_t lo = SIZE_MAX, hi = 0;
  for (const auto& p : parts) {
    lo = std::min(lo, p.size());
    hi = std::max(hi, p.size());
  }
  EXPECT_LE(hi - lo, 1u);
  // Earlier shards take the remainder.
  EXPECT_EQ(parts.front().size(), hi);
}

TEST(ShardPartition, ClampsShardsToCount) {
  const auto parts = shard_partition(3, 100);
  ASSERT_EQ(parts.size(), 3u);
  for (const auto& p : parts) EXPECT_EQ(p.size(), 1u);
  EXPECT_EQ(shard_partition(5, 0).size(), 1u);
}

TEST(ShardPartition, IsDeterministic) {
  EXPECT_EQ(shard_partition(1000, 7).front().end,
            shard_partition(1000, 7).front().end);
  const auto a = shard_partition(12345, 16);
  const auto b = shard_partition(12345, 16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

// ---------------------------------------------------------------------------
// manifest

TEST(Manifest, ParsesEntriesSkippingCommentsAndBlanks) {
  const auto entries = parse_manifest(
      "# header line\n\n  a/one.sp  \n#c\nb/two.sp\n/abs/three.sp\n", "/base");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "a/one.sp");
  EXPECT_EQ(entries[0].resolved, "/base/a/one.sp");
  EXPECT_EQ(entries[1].name, "b/two.sp");
  EXPECT_EQ(entries[2].name, "/abs/three.sp");
  EXPECT_EQ(entries[2].resolved, "/abs/three.sp");  // absolute: untouched
}

TEST(Manifest, RoundTripsThroughWriter) {
  const std::string text =
      write_manifest({"x.sp", "sub/y.sp"}, {"seed=1 count=2"});
  EXPECT_EQ(text, "# seed=1 count=2\nx.sp\nsub/y.sp\n");
  const auto entries = parse_manifest(text, "");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "x.sp");
  EXPECT_EQ(entries[0].resolved, "x.sp");
}

TEST(Manifest, UnreadableFileIsIoDiag) {
  const auto r = read_manifest("/nonexistent/gana/manifest.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.diag().code, DiagCode::IoError);
}

// ---------------------------------------------------------------------------
// fork-mode fixtures

/// Temp corpus shared by the fork-mode tests (generated once; every
/// test reads it, none mutates it).
class ShardDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process dir: gtest_discover_tests runs each TEST_F as its own
    // ctest entry, and a parallel ctest must not share a corpus dir.
    dir_ = new std::string(
        (fs::temp_directory_path() /
         ("gana_shard_test_corpus_" + std::to_string(::getpid())))
            .string());
    fs::remove_all(*dir_);
    datagen::CorpusOptions opt;
    opt.count = 18;
    opt.seed = 97;
    opt.dir = *dir_;
    opt.files_per_subdir = 7;  // exercises the subdirectory split
    auto stats = datagen::write_corpus(opt);
    ASSERT_TRUE(stats.ok()) << stats.diag().render();
    manifest_ = new std::string(stats.value().manifest_path);
  }
  static void TearDownTestSuite() {
    if (dir_ != nullptr) {
      std::error_code ec;
      fs::remove_all(*dir_, ec);
    }
    delete dir_;
    delete manifest_;
    dir_ = nullptr;
    manifest_ = nullptr;
  }

  static ShardOptions base_options(std::size_t shards) {
    ShardOptions opt;
    opt.shards = shards;
    opt.keep_going = true;
    opt.worker_exe = GANA_SHARD_BIN;
    return opt;
  }

  static std::string run_to_string(const std::string& manifest,
                                   const ShardOptions& opt,
                                   ShardRunStats* stats_out = nullptr) {
    std::ostringstream out;
    auto run = run_sharded(manifest, opt, out);
    EXPECT_TRUE(run.ok()) << (run.ok() ? "" : run.diag().render());
    if (run.ok() && stats_out != nullptr) *stats_out = run.value();
    return out.str();
  }

  static std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  static const std::string& dir() { return *dir_; }
  static const std::string& manifest() { return *manifest_; }

 private:
  static std::string* dir_;
  static std::string* manifest_;
};

std::string* ShardDriverTest::dir_ = nullptr;
std::string* ShardDriverTest::manifest_ = nullptr;

// ---------------------------------------------------------------------------
// determinism

TEST_F(ShardDriverTest, MergedOutputByteIdenticalAcrossShardCounts) {
  ShardRunStats s1;
  const std::string base = run_to_string(manifest(), base_options(1), &s1);
  EXPECT_EQ(s1.ok, 18u);
  EXPECT_EQ(s1.failed, 0u);
  ASSERT_FALSE(base.empty());

  for (std::size_t shards : {2ul, 8ul}) {
    ShardRunStats sn;
    const std::string merged =
        run_to_string(manifest(), base_options(shards), &sn);
    EXPECT_EQ(sn.shards.size(), shards);
    EXPECT_EQ(merged, base) << "shards=" << shards
                            << " diverged from the in-process baseline";
  }
}

TEST_F(ShardDriverTest, RecordsAppearInManifestOrder) {
  const auto lines = lines_of(run_to_string(manifest(), base_options(4)));
  ASSERT_EQ(lines.size(), 18u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("{\"index\":" + std::to_string(i) + ","),
              std::string::npos)
        << lines[i];
  }
}

// ---------------------------------------------------------------------------
// worker failure isolation

TEST_F(ShardDriverTest, CrashedWorkerYieldsStructuredDiagsHealthyShardsClean) {
  const std::string base = run_to_string(manifest(), base_options(1));
  const auto base_lines = lines_of(base);
  ASSERT_EQ(base_lines.size(), 18u);

  // 3 shards of 6; every worker SIGKILLs itself after emitting 4 result
  // frames, so each shard ends with 2 missing slots. The emitted
  // records must still match the healthy baseline byte-for-byte and the
  // missing slots must surface as structured worker-failed diags.
  // Static scheduler: the assertions below map slots to shards through
  // shard_partition, which only holds for contiguous ownership.
  ShardOptions crashy = base_options(3);
  crashy.scheduler = Scheduler::Static;
  crashy.extra_worker_args = {"--crash-after", "4"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), crashy, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.failed, 6u);  // 2 missing slots per shard
  EXPECT_EQ(stats.ok, 12u);

  const auto parts = shard_partition(18, 3);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (std::size_t i = parts[s].begin; i < parts[s].end; ++i) {
      const std::size_t offset = i - parts[s].begin;
      if (offset < 4) {
        // Records emitted before the crash are byte-identical to the
        // healthy baseline.
        EXPECT_EQ(lines[i], base_lines[i]) << "slot " << i;
      } else {
        EXPECT_NE(lines[i].find("\"worker-failed\""), std::string::npos)
            << "slot " << i << ": " << lines[i];
        EXPECT_NE(lines[i].find("killed by signal 9"), std::string::npos)
            << lines[i];
      }
    }
  }
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_EQ(stats.first_failure->code, DiagCode::WorkerFailed);
}

TEST_F(ShardDriverTest, SingleCrashedShardLeavesOthersByteIdentical) {
  const auto base_lines = lines_of(run_to_string(manifest(), base_options(1)));

  // Workers die one slot before finishing (crash-after 5 of 6): every
  // record that WAS emitted must match the baseline bytes even though a
  // sibling slot in the same shard failed. Contiguous-ownership
  // assertions need the static scheduler.
  ShardOptions crashy = base_options(3);
  crashy.scheduler = Scheduler::Static;
  crashy.extra_worker_args = {"--crash-after", "5"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), crashy, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.ok, 15u);
  EXPECT_EQ(stats.failed, 3u);
  const auto parts = shard_partition(18, 3);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    for (std::size_t i = parts[s].begin; i + 1 < parts[s].end; ++i) {
      EXPECT_EQ(lines[i], base_lines[i]) << "slot " << i;
    }
  }
}

TEST_F(ShardDriverTest, StalledWorkerHitsDeadlineWithStructuredDiags) {
  ShardOptions opt = base_options(2);
  opt.scheduler = Scheduler::Static;  // "3 per shard" needs fixed ranges
  opt.shard_timeout_seconds = 0.5;
  opt.extra_worker_args = {"--stall-after", "3"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), opt, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.ok, 6u);  // 3 per shard before the stall
  EXPECT_EQ(stats.failed, 12u);
  for (const auto& shard : stats.shards) {
    EXPECT_TRUE(shard.deadline_expired);
  }
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_EQ(stats.first_failure->code, DiagCode::DeadlineExceeded);
  EXPECT_NE(lines[4].find("\"deadline-exceeded\""), std::string::npos)
      << lines[4];
}

TEST_F(ShardDriverTest, FailFastMarksUnprocessedSlotsSkipped) {
  // A manifest with one unreadable entry in the middle.
  const std::string bad_manifest = dir() + "/manifest_bad.txt";
  {
    auto entries = read_manifest(manifest());
    ASSERT_TRUE(entries.ok());
    std::vector<std::string> names;
    for (std::size_t i = 0; i < entries.value().size(); ++i) {
      if (i == 2) names.push_back("missing/nope.sp");
      names.push_back(entries.value()[i].name);
    }
    std::ofstream f(bad_manifest, std::ios::trunc);
    f << write_manifest(names);
  }
  ShardOptions opt = base_options(3);
  opt.scheduler = Scheduler::Static;
  opt.keep_going = false;
  // Workers stall after emitting 4 frames; without the stall a tiny
  // shard can finish before the fail-fast kill lands and the test would
  // race. Shard 0 (slots 0-6) emits 0,1 ok, the io-error at 2, 3 ok,
  // then hangs -- so its slots 4-6 are ALWAYS cancelled.
  opt.extra_worker_args = {"--stall-after", "4"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(bad_manifest, opt, &stats));
  ASSERT_EQ(lines.size(), 19u);
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_NE(lines[2].find("\"io-error\""), std::string::npos) << lines[2];
  // Every slot gets a record: annotation, the triggering io-error, or a
  // structured fail-fast skip. How many of the OTHER shards' slots were
  // cancelled is scheduling-dependent (same contract as BatchRunner's
  // FailFast), but shard 0's own trailing slots always are.
  EXPECT_EQ(stats.ok + stats.failed, 19u);
  std::size_t skipped = 0;
  for (const auto& l : lines) {
    if (l.find("\"skipped\"") != std::string::npos) ++skipped;
  }
  EXPECT_GE(skipped, 3u);
  EXPECT_EQ(stats.failed, 1u + skipped);
  EXPECT_EQ(*stats.first_failure_index, 2u);
  EXPECT_EQ(stats.first_failure->code, DiagCode::IoError);
}

TEST_F(ShardDriverTest, KeepGoingIsolatesBadEntry) {
  const std::string bad_manifest = dir() + "/manifest_bad_keep.txt";
  {
    auto entries = read_manifest(manifest());
    ASSERT_TRUE(entries.ok());
    std::vector<std::string> names;
    for (const auto& e : entries.value()) names.push_back(e.name);
    names.insert(names.begin() + 5, "missing/nope.sp");
    std::ofstream f(bad_manifest, std::ios::trunc);
    f << write_manifest(names);
  }
  ShardOptions opt = base_options(4);
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(bad_manifest, opt, &stats));
  ASSERT_EQ(lines.size(), 19u);
  EXPECT_EQ(stats.ok, 18u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_NE(lines[5].find("\"io-error\""), std::string::npos) << lines[5];
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_EQ(*stats.first_failure_index, 5u);
}

// ---------------------------------------------------------------------------
// work-stealing scheduler

/// Flat inverter chain of `stages` stages: a structurally valid netlist
/// whose matching cost grows with the chain, used to front-load a few
/// expensive slots into an otherwise tiny corpus.
std::string chain_netlist(std::size_t stages) {
  std::ostringstream s;
  s << "* inverter chain x" << stages << "\n";
  for (std::size_t i = 0; i < stages; ++i) {
    s << "m" << (2 * i) << " n" << (i + 1) << " n" << i
      << " vdd! vdd! pmos w=2u l=90n\n"
      << "m" << (2 * i + 1) << " n" << (i + 1) << " n" << i
      << " gnd! gnd! nmos w=1u l=90n\n";
  }
  s << ".end\n";
  return s.str();
}

TEST_F(ShardDriverTest, StealingMatchesStaticOnSkewedCorpus) {
  // A skewed corpus: three giant chains up front, then twelve small
  // generated circuits. Under the static partition the first worker
  // owns nearly all the work; stealing rebalances it -- but the merged
  // bytes must not move at any worker count or scheduler.
  const std::string skew_dir = dir() + "/skew";
  fs::create_directories(skew_dir);
  std::vector<std::string> names;
  for (std::size_t g = 0; g < 3; ++g) {
    const std::string name = "giant" + std::to_string(g) + ".sp";
    std::ofstream f(skew_dir + "/" + name, std::ios::trunc);
    f << chain_netlist(80 + 20 * g);
    ASSERT_TRUE(f.good());
    names.push_back(name);
  }
  datagen::CorpusOptions small;
  small.seed = 41;
  for (std::size_t i = 0; i < 12; ++i) {
    const std::string name = "small" + std::to_string(i) + ".sp";
    std::ofstream f(skew_dir + "/" + name, std::ios::trunc);
    f << datagen::corpus_netlist_text(small, i);
    ASSERT_TRUE(f.good());
    names.push_back(name);
  }
  const std::string skew_manifest = skew_dir + "/manifest.txt";
  {
    std::ofstream f(skew_manifest, std::ios::trunc);
    f << write_manifest(names);
    ASSERT_TRUE(f.good());
  }

  ShardOptions base = base_options(1);
  base.scheduler = Scheduler::Static;
  const std::string baseline = run_to_string(skew_manifest, base);
  ASSERT_EQ(lines_of(baseline).size(), 15u);

  for (std::size_t workers : {2ul, 3ul, 8ul}) {
    for (const Scheduler sched : {Scheduler::Static, Scheduler::Stealing}) {
      ShardOptions opt = base_options(workers);
      opt.scheduler = sched;
      ShardRunStats stats;
      const std::string merged = run_to_string(skew_manifest, opt, &stats);
      EXPECT_EQ(merged, baseline)
          << "workers=" << workers << " scheduler="
          << (sched == Scheduler::Static ? "static" : "stealing");
      EXPECT_EQ(stats.ok + stats.failed, 15u);
      if (sched == Scheduler::Stealing) {
        // Every slot was handed out via grants, and each worker paid
        // its startup (model/library load) exactly once.
        std::size_t chunks = 0, steals = 0;
        for (const auto& shard : stats.shards) {
          chunks += shard.chunks_served;
          steals += shard.steal_requests;
          EXPECT_GE(shard.startup_seconds, 0.0);
        }
        EXPECT_GE(chunks, 2u) << "workers=" << workers;
        EXPECT_GE(steals, chunks);
      }
    }
  }
}

TEST_F(ShardDriverTest, CrashMidStealLosesNoSlotsUnderKeepGoing) {
  const auto base_lines = lines_of(run_to_string(manifest(), base_options(1)));
  ASSERT_EQ(base_lines.size(), 18u);

  // Three stealing workers that each SIGKILL themselves after emitting
  // two result frames: every granted-but-unrecorded slot must come back
  // as a structured worker-failed diag, every never-granted tail slot
  // likewise, and no slot may be lost or recorded twice. WHICH slots a
  // worker was granted when it died depends on grant interleaving, but
  // each worker emits exactly two records, so the totals are exact.
  ShardOptions opt = base_options(3);
  ASSERT_EQ(opt.scheduler, Scheduler::Stealing);  // stealing is default
  opt.extra_worker_args = {"--crash-after", "2"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), opt, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.ok, 6u);
  EXPECT_EQ(stats.failed, 12u);
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Exactly one record per slot, in manifest order; each is either
    // byte-identical to the healthy baseline or a structured failure.
    EXPECT_NE(lines[i].find("{\"index\":" + std::to_string(i) + ","),
              std::string::npos)
        << lines[i];
    if (lines[i] == base_lines[i]) {
      ++emitted;
    } else {
      EXPECT_NE(lines[i].find("\"worker-failed\""), std::string::npos)
          << "slot " << i << ": " << lines[i];
    }
  }
  EXPECT_EQ(emitted, 6u);
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_EQ(stats.first_failure->code, DiagCode::WorkerFailed);
  std::size_t chunks = 0, steals = 0;
  for (const auto& shard : stats.shards) {
    chunks += shard.chunks_served;
    steals += shard.steal_requests;
  }
  EXPECT_GE(chunks, 3u);  // every worker won at least its first grant
  EXPECT_GE(steals, chunks);
}

TEST_F(ShardDriverTest, BinaryLibraryArtifactMatchesBuiltin) {
  const std::string baseline = run_to_string(manifest(), base_options(2));

  // Pack the built-in library and point the workers at the artifact:
  // the mmap-decoded compiled form must annotate byte-identically.
  const std::string lib_bin = dir() + "/standard_lib.bin";
  auto saved = primitives::save_library_artifact(
      primitives::PrimitiveLibrary::standard(), lib_bin);
  ASSERT_TRUE(saved.ok()) << saved.diag().render();

  ShardOptions opt = base_options(2);
  opt.pipeline.load_library = lib_bin;
  ShardRunStats stats;
  const std::string merged = run_to_string(manifest(), opt, &stats);
  EXPECT_EQ(merged, baseline);
  EXPECT_EQ(stats.ok, 18u);
  for (const auto& shard : stats.shards) {
    EXPECT_GE(shard.startup_seconds, 0.0);
  }
}

// ---------------------------------------------------------------------------
// merge golden

/// Pins the exact merged bytes (record framing, key order, annotation
/// payload encoding) of a tiny fixed corpus. GANA_UPDATE_GOLDEN=1
/// regenerates after an intentional format change.
TEST_F(ShardDriverTest, MergeGoldenPinsRecordFormat) {
  const std::string golden_path =
      std::string(GANA_TEST_FIXTURE_DIR) + "/shard_merge_golden.jsonl";
  const std::string merged = run_to_string(manifest(), base_options(2));

  if (std::getenv("GANA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream f(golden_path, std::ios::binary | std::ios::trunc);
    f << merged;
    ASSERT_TRUE(f.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream f(golden_path, std::ios::binary);
  ASSERT_TRUE(f.good()) << "missing golden " << golden_path
                        << " -- run with GANA_UPDATE_GOLDEN=1 to create it";
  std::ostringstream buf;
  buf << f.rdbuf();
  EXPECT_EQ(merged, buf.str())
      << "merged record bytes changed (rerun with GANA_UPDATE_GOLDEN=1 if "
         "intentional)";
}

// ---------------------------------------------------------------------------
// perf summary

TEST_F(ShardDriverTest, InProcessSliceCountsItsParse) {
  // The slice parses its files before the batch runner's counter window
  // opens; the parse window's counters must still land in the slice's
  // timings. One job, so no other thread moves the process counters.
  auto entries = read_manifest(manifest());
  ASSERT_TRUE(entries.ok()) << entries.diag().render();
  SliceRunner runner;
  ASSERT_TRUE(runner.init(PipelineOptions{}).ok());
  const PerfSnapshot before = perf_snapshot();
  auto slice = runner.run(entries.value(), {0, entries.value().size()},
                          [](std::size_t, const NetlistRecord&) {
                            return true;
                          });
  const PerfSnapshot delta = perf_snapshot() - before;
  ASSERT_TRUE(slice.ok()) << slice.diag().render();
  const core::BatchTimings& timings = slice.value().timings;
  EXPECT_GT(delta.parse_bytes, 0u);
  EXPECT_EQ(timings.parse_bytes, delta.parse_bytes);
  EXPECT_EQ(timings.intern_hits, delta.intern_hits);
  EXPECT_EQ(timings.intern_misses, delta.intern_misses);
  EXPECT_EQ(timings.frontend_allocs, delta.frontend_allocs);
}

// ---------------------------------------------------------------------------
// corpus generation

TEST(Corpus, CircuitTextIsPureFunctionOfSeedAndIndex) {
  datagen::CorpusOptions a;
  a.seed = 5;
  datagen::CorpusOptions b;
  b.seed = 5;
  b.count = 999;  // count must not influence per-index bytes
  EXPECT_EQ(datagen::corpus_netlist_text(a, 3),
            datagen::corpus_netlist_text(b, 3));
  datagen::CorpusOptions c;
  c.seed = 6;
  EXPECT_NE(datagen::corpus_netlist_text(a, 3),
            datagen::corpus_netlist_text(c, 3));
  EXPECT_NE(datagen::corpus_netlist_text(a, 3),
            datagen::corpus_netlist_text(a, 4));
}

TEST(Corpus, WriteIsIdempotentAndReusesFreshFiles) {
  const std::string dir =
      (fs::temp_directory_path() / "gana_corpus_idempotent").string();
  fs::remove_all(dir);
  datagen::CorpusOptions opt;
  opt.count = 6;
  opt.seed = 11;
  opt.dir = dir;
  auto first = datagen::write_corpus(opt);
  ASSERT_TRUE(first.ok()) << first.diag().render();
  EXPECT_EQ(first.value().written, 6u);
  EXPECT_EQ(first.value().reused, 0u);

  auto second = datagen::write_corpus(opt);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().written, 0u);
  EXPECT_EQ(second.value().reused, 6u);

  // A different seed invalidates the provenance header: full rewrite.
  opt.seed = 12;
  auto third = datagen::write_corpus(opt);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().written, 6u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace gana::shard
