// Sharded batch driver tests: manifest parsing, byte-identical merges
// across worker counts, worker-failure isolation, deadline enforcement,
// and the merge golden.
//
// Fork-mode tests exec the real gana_shard binary (GANA_SHARD_BIN, a
// compile definition pointing at the example target) with the hidden
// --crash-after / --stall-after worker fault hooks. Which worker runs
// which slot depends on grant interleaving, so every fork-mode assertion
// holds for all interleavings. A grant is clamp(remaining /
// (2 * workers), 1, 1024) slots: on the 18-netlist fixture corpus with 3
// workers the first grant is 3 slots and every later one at most 2;
// with 2 workers every grant is at most 4.
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

  /// Lines equal to the healthy baseline's line for the same slot.
  static std::size_t count_baseline_identical(
      const std::vector<std::string>& lines,
      const std::vector<std::string>& base_lines) {
    std::size_t same = 0;
    for (std::size_t i = 0; i < lines.size() && i < base_lines.size(); ++i) {
      if (lines[i] == base_lines[i]) ++same;
    }
    return same;
  }

  static std::size_t count_containing(const std::vector<std::string>& lines,
                                      const std::string& needle) {
    std::size_t n = 0;
    for (const auto& l : lines) {
      if (l.find(needle) != std::string::npos) ++n;
    }
    return n;
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

  // More workers than netlists: the worker count clamps to the manifest
  // size, and the records are the baseline's first three lines.
  const std::string three_manifest = dir() + "/manifest_three.txt";
  {
    auto entries = read_manifest(manifest());
    ASSERT_TRUE(entries.ok());
    ASSERT_GE(entries.value().size(), 3u);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < 3; ++i) {
      names.push_back(entries.value()[i].name);
    }
    std::ofstream f(three_manifest, std::ios::trunc);
    f << write_manifest(names);
  }
  const auto base_lines = lines_of(base);
  ASSERT_EQ(base_lines.size(), 18u);
  std::string three_base;
  for (std::size_t i = 0; i < 3; ++i) three_base += base_lines[i] + "\n";
  ShardRunStats s3;
  EXPECT_EQ(run_to_string(three_manifest, base_options(8), &s3), three_base);
  EXPECT_EQ(s3.shards.size(), 3u);
  EXPECT_EQ(s3.ok, 3u);
}

TEST_F(ShardDriverTest, NanosecondTimeoutReachesWorkersAtFullPrecision) {
  // A 1 ns per-netlist budget trips at the first checkpoint of every
  // netlist, in-process and in every worker alike. Printed with six
  // fixed decimals it would reach workers as 0 (no deadline), and the
  // forked run would annotate every netlist the in-process run rejects.
  ShardOptions one = base_options(1);
  one.pipeline.timeout_seconds = 1e-9;
  ShardOptions two = one;
  two.shards = 2;
  ShardRunStats s1, s2;
  const std::string base = run_to_string(manifest(), one, &s1);
  EXPECT_EQ(run_to_string(manifest(), two, &s2), base);
  EXPECT_EQ(s1.failed, 18u);
  EXPECT_EQ(s2.failed, 18u);
  EXPECT_EQ(count_containing(lines_of(base), "\"deadline-exceeded\""), 18u);
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

  // 3 workers, each SIGKILLs itself on its 5th result frame. A worker
  // holds at most 4 slots before the grant that kills it, and that grant
  // is at most 2 slots (only the first grant is 3, and it goes to a
  // worker holding none), so a worker consumes at most 6 slots. 3 * 6 <=
  // 18: no worker can be told "done" before its fatal frame, so every
  // worker emits exactly 4 records. Those must match the healthy
  // baseline byte-for-byte; every other slot is a structured
  // worker-failed diag.
  ShardOptions crashy = base_options(3);
  crashy.extra_worker_args = {"--crash-after", "4"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), crashy, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.ok, 12u);
  EXPECT_EQ(stats.failed, 6u);
  EXPECT_EQ(count_baseline_identical(lines, base_lines), 12u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == base_lines[i]) continue;
    EXPECT_NE(lines[i].find("\"worker-failed\""), std::string::npos)
        << "slot " << i << ": " << lines[i];
  }
  // Each worker died holding the slot of its fatal frame.
  EXPECT_GE(count_containing(lines, "killed by signal 9"), 3u);
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_EQ(stats.first_failure->code, DiagCode::WorkerFailed);
}

TEST_F(ShardDriverTest, SingleCrashedShardLeavesOthersByteIdentical) {
  const auto base_lines = lines_of(run_to_string(manifest(), base_options(1)));
  ASSERT_EQ(base_lines.size(), 18u);

  // Workers die on their 6th result frame. A worker may now consume up
  // to 7 slots, and 3 * 7 > 18, so one may be told "done" before its
  // fatal frame: exact counts depend on grant interleaving. Every
  // record that WAS emitted must still match the baseline bytes even
  // though sibling slots failed.
  ShardOptions crashy = base_options(3);
  crashy.extra_worker_args = {"--crash-after", "5"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), crashy, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.ok + stats.failed, 18u);
  EXPECT_LE(stats.ok, 15u);  // at most 5 records per worker
  EXPECT_GE(stats.failed, 1u);
  EXPECT_EQ(count_baseline_identical(lines, base_lines), stats.ok);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == base_lines[i]) continue;
    EXPECT_NE(lines[i].find("\"worker-failed\""), std::string::npos)
        << "slot " << i << ": " << lines[i];
  }
}

TEST_F(ShardDriverTest, StalledWorkerHitsDeadlineWithStructuredDiags) {
  // 2 workers hang on their 4th result frame. A grant is at most 4
  // slots, so a worker consumes at most 7 and neither can be told
  // "done" before it stalls: exactly 3 records each. The deadline then
  // kills both, and every other slot -- granted to a stalled worker or
  // never granted -- is deadline-exceeded.
  ShardOptions opt = base_options(2);
  opt.shard_timeout_seconds = 0.5;
  opt.extra_worker_args = {"--stall-after", "3"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(manifest(), opt, &stats));
  ASSERT_EQ(lines.size(), 18u);
  EXPECT_EQ(stats.ok, 6u);
  EXPECT_EQ(stats.failed, 12u);
  for (const auto& shard : stats.shards) {
    EXPECT_TRUE(shard.deadline_expired);
  }
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_EQ(stats.first_failure->code, DiagCode::DeadlineExceeded);
  EXPECT_EQ(count_containing(lines, "\"deadline-exceeded\""), 12u);
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
  opt.keep_going = false;
  // Workers stall after emitting 4 frames; without the stall a worker
  // could drain the queue before the fail-fast kill lands and the test
  // would race. The first grant is slots 0-2, so one worker emits 0 and
  // 1 ok, then the io-error at 2. No worker emits more than 4 records,
  // so at most 12 of the 19 slots are recorded and at least 7 are
  // always cancelled.
  opt.extra_worker_args = {"--stall-after", "4"};
  ShardRunStats stats;
  const auto lines = lines_of(run_to_string(bad_manifest, opt, &stats));
  ASSERT_EQ(lines.size(), 19u);
  ASSERT_TRUE(stats.first_failure.has_value());
  EXPECT_NE(lines[2].find("\"io-error\""), std::string::npos) << lines[2];
  // Every slot gets a record: annotation, the triggering io-error, or a
  // structured fail-fast skip. How many slots beyond the 7 were
  // cancelled is scheduling-dependent (same contract as BatchRunner's
  // FailFast).
  EXPECT_EQ(stats.ok + stats.failed, 19u);
  const std::size_t skipped = count_containing(lines, "\"skipped\"");
  EXPECT_GE(skipped, 7u);
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
// grant scheduling

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
  // generated circuits. A fixed contiguous split would hand the first
  // worker nearly all the work; grants rebalance it -- but the merged
  // bytes must equal the in-process baseline at every worker count.
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

  const std::string baseline = run_to_string(skew_manifest, base_options(1));
  ASSERT_EQ(lines_of(baseline).size(), 15u);

  for (std::size_t workers : {2ul, 3ul, 8ul}) {
    ShardRunStats stats;
    const std::string merged =
        run_to_string(skew_manifest, base_options(workers), &stats);
    EXPECT_EQ(merged, baseline) << "workers=" << workers;
    EXPECT_EQ(stats.ok + stats.failed, 15u);
    // Every slot was handed out via grants, and each worker paid its
    // startup (model/library load) exactly once.
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

TEST(SliceRunnerInit, UnknownDomainIsBadValue) {
  PipelineOptions options;
  options.domain = "xyz";
  SliceRunner runner;
  const auto init = runner.init(options);
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.diag().code, DiagCode::BadValue);
  EXPECT_NE(init.diag().message.find("xyz"), std::string::npos)
      << init.diag().message;
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
