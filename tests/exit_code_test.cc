// Asserts the documented exit-code contract of the CLI tools end to end
// (docs/robustness.md): detective_clean exits 0 success, 1 load/runtime
// failure, 2 inconsistent under --check-consistency, 3 lint-rejected under
// --lint=strict, 4 completed degraded, 64 usage; detective_lint 0/1/3/64;
// detective_explain 0/1/64. The binaries are driven as subprocesses — the
// same way CI and downstream scripts consume them.

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <fcntl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "kb/ntriples_parser.h"
#include "obs/http_server.h"

namespace detective {
namespace {

constexpr const char* kCleanBin = DETECTIVE_CLEAN_BIN;
constexpr const char* kLintBin = DETECTIVE_LINT_BIN;
constexpr const char* kExplainBin = DETECTIVE_EXPLAIN_BIN;
constexpr const char* kRulegenBin = DETECTIVE_RULEGEN_BIN;
constexpr const char* kDataDir = DETECTIVE_SOURCE_DIR "/data";

/// Runs `command` (with stdout/stderr silenced) and returns its exit code,
/// or -1 if the child did not exit normally.
int ExitCode(const std::string& command) {
  int raw = std::system((command + " >/dev/null 2>&1").c_str());
  if (raw == -1 || !WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// The paper's shipped example: clean run, all codes 0.
std::string CleanCommand(const std::string& extra) {
  return std::string(kCleanBin) + " --kb=" + kDataDir + "/figure1.nt" +
         " --rules=" + kDataDir + "/figure4.dr" + " --input=" + kDataDir +
         "/table1.csv --output=" + TempPath("exit_out.csv") + " " + extra;
}

TEST(CleanExitCodes, SuccessIsZero) {
  EXPECT_EQ(ExitCode(CleanCommand("")), 0);
}

TEST(CleanExitCodes, LoadFailureIsOne) {
  std::string cmd = std::string(kCleanBin) +
                    " --kb=/nonexistent.nt --rules=" + kDataDir +
                    "/figure4.dr --input=" + kDataDir +
                    "/table1.csv --output=" + TempPath("exit_out.csv");
  EXPECT_EQ(ExitCode(cmd), 1);
}

TEST(CleanExitCodes, InconsistentRuleSetIsTwo) {
  // Two rules that repair City from conflicting evidence (cf.
  // consistency_test.cc): different chase orders reach different fixpoints,
  // so --check-consistency must refuse. Lint is off — the static analyzer
  // flags the same conflict ahead of time, which is exit 3's job.
  std::string kb_path = TempPath("exit_conflict.nt");
  WriteFile(kb_path,
            "<Alice> <rdf:type> <person> .\n"
            "<Rome> <rdf:type> <city> .\n"
            "<Oslo> <rdf:type> <city> .\n"
            "<Cairo> <rdf:type> <city> .\n"
            "<Alice> <livesIn> <Rome> .\n"
            "<Alice> <worksIn> <Oslo> .\n"
            "<Alice> <bornIn> <Cairo> .\n");
  std::string rules_path = TempPath("exit_conflict.dr");
  WriteFile(rules_path,
            "RULE via_lives\n"
            "NODE e col=\"Name\" type=\"person\"\n"
            "POS p col=\"City\" type=\"city\"\n"
            "NEG n col=\"City\" type=\"city\"\n"
            "EDGE e \"livesIn\" p\n"
            "EDGE e \"bornIn\" n\n"
            "END\n"
            "RULE via_works\n"
            "NODE e col=\"Name\" type=\"person\"\n"
            "POS p col=\"City\" type=\"city\"\n"
            "NEG n col=\"City\" type=\"city\"\n"
            "EDGE e \"worksIn\" p\n"
            "EDGE e \"bornIn\" n\n"
            "END\n");
  std::string csv_path = TempPath("exit_conflict.csv");
  WriteFile(csv_path, "Name,City\nAlice,Cairo\n");
  std::string cmd = std::string(kCleanBin) + " --kb=" + kb_path +
                    " --rules=" + rules_path + " --input=" + csv_path +
                    " --output=" + TempPath("exit_out.csv") +
                    " --lint=off --check-consistency";
  EXPECT_EQ(ExitCode(cmd), 2);
}

TEST(CleanExitCodes, LintRejectionIsThree) {
  // A rule over a type the KB does not declare is an error-level lint
  // finding; --lint=strict refuses to run, --lint=warn proceeds (the rule
  // just never fires).
  std::string rules_path = TempPath("exit_unknown_type.dr");
  WriteFile(rules_path,
            "RULE ghost\n"
            "NODE e col=\"Name\" type=\"martian\"\n"
            "POS p col=\"Prize\" type=\"prize\"\n"
            "NEG n col=\"Prize\" type=\"prize\"\n"
            "EDGE e \"hasWonPrize\" p\n"
            "EDGE e \"hasWonPrize\" n\n"
            "END\n");
  std::string base = std::string(kCleanBin) + " --kb=" + kDataDir +
                     "/figure1.nt --rules=" + rules_path +
                     " --input=" + kDataDir +
                     "/table1.csv --output=" + TempPath("exit_out.csv");
  EXPECT_EQ(ExitCode(base + " --lint=strict"), 3);
  EXPECT_EQ(ExitCode(base + " --lint=warn"), 0);
}

#if DETECTIVE_FAULT_ENABLED
TEST(CleanExitCodes, DegradedCompletionIsFour) {
  std::string quarantine_path = TempPath("exit_quarantine.jsonl");
  std::string cmd = CleanCommand(
      "--fault-plan='seed=7; site=repair.tuple, p=0.5' --quarantine-json=" +
      quarantine_path);
  EXPECT_EQ(ExitCode(cmd), 4);
  // The ledger was still written before the degraded exit.
  std::ifstream in(quarantine_path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"reason\": \"fault\""), std::string::npos) << line;
}

TEST(CleanExitCodes, FaultPlanFromEnvironmentAlsoDegrades) {
  std::string cmd = "DETECTIVE_FAULT_PLAN='seed=7; site=repair.tuple, p=0.5' " +
                    CleanCommand("");
  EXPECT_EQ(ExitCode(cmd), 4);
}
#endif  // DETECTIVE_FAULT_ENABLED

TEST(CleanExitCodes, UsageErrorsAreSixtyFour) {
  EXPECT_EQ(ExitCode(kCleanBin), 64);  // required flags missing
  EXPECT_EQ(ExitCode(CleanCommand("--no-such-flag")), 64);
  EXPECT_EQ(ExitCode(CleanCommand("--algorithm=quantum")), 64);
  EXPECT_EQ(ExitCode(CleanCommand("--deadline-ms=soon")), 64);
  EXPECT_EQ(ExitCode(CleanCommand("--fault-plan=bogus")), 64);
  EXPECT_EQ(ExitCode(CleanCommand("--multi-version --tuple-budget-ms=5")), 64);
  EXPECT_EQ(ExitCode(CleanCommand("--algorithm=basic --max-rule-failures=1")),
            64);
  EXPECT_EQ(ExitCode(CleanCommand("--stratify=always")), 64);
}

TEST(CleanExitCodes, IntrospectPortInUseIsUsageError) {
  // Occupy a loopback port, then ask the CLI to introspect on it: binding
  // fails before any cleaning starts, which is a usage error by contract.
  obs::HttpServer squatter;
  ASSERT_TRUE(squatter.Start().ok());
  std::string cmd = CleanCommand("--introspect=" +
                                 std::to_string(squatter.port()));
  EXPECT_EQ(ExitCode(cmd), 64);
  squatter.Stop();
  // Bad port values are usage errors too.
  EXPECT_EQ(ExitCode(CleanCommand("--introspect=99999")), 64);
  EXPECT_EQ(ExitCode(CleanCommand("--introspect=soon")), 64);
  // An ephemeral-port run succeeds and still cleans.
  EXPECT_EQ(ExitCode(CleanCommand("--introspect=0")), 0);
}

TEST(CleanExitCodes, StratifyContract) {
  // auto and off always run; the figure4 rules keep an interaction cycle no
  // refutation breaks (phi1-phi3 feed each other's evidence), so strict
  // refuses with the lint-rejected code. The shipped showcase pair
  // (examples/rules/nobel_strata.dr) certifies fully acyclic — its nominal
  // cycle is statically refuted — so strict accepts it.
  EXPECT_EQ(ExitCode(CleanCommand("--stratify=auto")), 0);
  EXPECT_EQ(ExitCode(CleanCommand("--stratify=off")), 0);
  EXPECT_EQ(ExitCode(CleanCommand("--stratify=strict")), 3);
  std::string showcase = std::string(kCleanBin) + " --kb=" + kDataDir +
                         "/figure1.nt --rules=" DETECTIVE_SOURCE_DIR
                         "/examples/rules/nobel_strata.dr --input=" + kDataDir +
                         "/table1.csv --output=" + TempPath("exit_out.csv") +
                         " --stratify=strict";
  EXPECT_EQ(ExitCode(showcase), 0);
}

TEST(LintExitCodes, Contract) {
  std::string clean = std::string(kLintBin) + " --kb=" + kDataDir +
                      "/figure1.nt --rules=" + kDataDir + "/figure4.dr";
  EXPECT_EQ(ExitCode(clean), 0);
  EXPECT_EQ(ExitCode(std::string(kLintBin) + " --kb=/nonexistent.nt --rules=" +
                     kDataDir + "/figure4.dr"),
            1);
  EXPECT_EQ(ExitCode(kLintBin), 64);

  std::string rules_path = TempPath("exit_lint_unknown.dr");
  WriteFile(rules_path,
            "RULE ghost\n"
            "NODE e col=\"Name\" type=\"martian\"\n"
            "POS p col=\"Prize\" type=\"prize\"\n"
            "NEG n col=\"Prize\" type=\"prize\"\n"
            "EDGE e \"hasWonPrize\" p\n"
            "EDGE e \"hasWonPrize\" n\n"
            "END\n");
  std::string bad = std::string(kLintBin) + " --kb=" + kDataDir +
                    "/figure1.nt --rules=" + rules_path;
  EXPECT_EQ(ExitCode(bad), 3);
  EXPECT_EQ(ExitCode(bad + " --fail-on=never"), 0);
}

// ---- detective_serve ---------------------------------------------------------
// The daemon's lifecycle contract (docs/serving.md): 64 for unusable
// configuration — bad flags, a port that cannot be bound — so supervisors
// distinguish "fix the config" from "crashed" (1), 3 when strict analysis
// rejects the rule set, and 0 for a SIGTERM-initiated graceful drain.

constexpr const char* kServeBin = DETECTIVE_SERVE_BIN;

std::string ServeCommand(const std::string& extra) {
  return std::string(kServeBin) + " --kb=" + kDataDir + "/figure1.nt" +
         " --rules=" + kDataDir + "/figure4.dr" +
         " --schema-csv=" + kDataDir + "/table1.csv " + extra;
}

/// Spawns `command` (split on spaces — no argument here contains one),
/// parses the "detective_serve: http://127.0.0.1:PORT" handshake off its
/// stdout, and exposes the port + the eventual exit code. fork/exec directly
/// — no shell in between — because the test must SIGTERM the daemon itself
/// and harvest its exit status.
class ServeProcess {
 public:
  explicit ServeProcess(const std::string& command) {
    int out_pipe[2] = {-1, -1};
    if (pipe(out_pipe) != 0) return;
    std::vector<std::string> words;
    for (size_t pos = 0; pos < command.size();) {
      const size_t space = command.find(' ', pos);
      const size_t end = space == std::string::npos ? command.size() : space;
      if (end > pos) words.push_back(command.substr(pos, end - pos));
      pos = end + 1;
    }
    pid_ = fork();
    if (pid_ == 0) {
      dup2(out_pipe[1], STDOUT_FILENO);
      close(out_pipe[0]);
      close(out_pipe[1]);
      int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) dup2(devnull, STDERR_FILENO);
      std::vector<char*> argv;
      argv.reserve(words.size() + 1);
      for (std::string& word : words) argv.push_back(word.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out_pipe[1]);
    // Read stdout a byte at a time until the handshake line completes (the
    // daemon keeps the descriptor open, so "read to EOF" would hang).
    std::string line;
    char byte = 0;
    while (line.find('\n') == std::string::npos && line.size() < 4096 &&
           read(out_pipe[0], &byte, 1) == 1) {
      line.push_back(byte);
    }
    close(out_pipe[0]);
    const size_t at = line.rfind(':');
    if (line.find("detective_serve: http://127.0.0.1:") == 0 &&
        at != std::string::npos) {
      port_ = static_cast<uint16_t>(std::stoi(line.substr(at + 1)));
    }
  }

  ~ServeProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }

  uint16_t port() const { return port_; }
  bool started() const { return pid_ > 0 && port_ != 0; }

  /// SIGTERMs the daemon and returns its exit code (-1 on abnormal exit).
  int Terminate() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int raw = 0;
    if (waitpid(pid_, &raw, 0) != pid_) return -1;
    pid_ = -1;
    return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

TEST(ServeExitCodes, UsageErrorsAre64) {
  EXPECT_EQ(ExitCode(kServeBin), 64);
  EXPECT_EQ(ExitCode(ServeCommand("--port=99999")), 64);
  EXPECT_EQ(ExitCode(ServeCommand("--queue-depth=0")), 64);
  EXPECT_EQ(ExitCode(ServeCommand("--lint=sometimes")), 64);
  // --schema and --schema-csv are mutually exclusive, one is required.
  EXPECT_EQ(ExitCode(std::string(kServeBin) + " --kb=" + kDataDir +
                     "/figure1.nt --rules=" + kDataDir + "/figure4.dr"),
            64);
}

TEST(ServeExitCodes, LoadFailureIsOne) {
  EXPECT_EQ(ExitCode(std::string(kServeBin) +
                     " --kb=/nonexistent.nt --rules=" + kDataDir +
                     "/figure4.dr --schema-csv=" + kDataDir + "/table1.csv"),
            1);
}

TEST(ServeExitCodes, StrictAnalysisRejectionIsThree) {
  // The figure4 rules keep an interaction cycle no refutation breaks, so
  // --stratify=strict refuses to serve with the same code the batch tool
  // uses (see CleanExitCodes.StratifyContract).
  EXPECT_EQ(ExitCode(ServeCommand("--stratify=strict")), 3);
}

TEST(ServeExitCodes, SigtermDrainsToZeroAndPortInUseIs64) {
  ServeProcess daemon(ServeCommand(""));
  ASSERT_TRUE(daemon.started());
  // A second daemon asking for the same (now taken) port is a usage error.
  EXPECT_EQ(ExitCode(ServeCommand("--port=" + std::to_string(daemon.port()))),
            64);
  EXPECT_EQ(daemon.Terminate(), 0);
}

// ---- KB snapshots + incremental cleaning -------------------------------------
// docs/performance.md: a rejected snapshot (bad magic / version / checksum)
// is configuration, not a crash — exit 64, same as detective_kb_build.

constexpr const char* kKbBuildBin = DETECTIVE_KB_BUILD_BIN;

std::string SnapshotCleanCommand(const std::string& snapshot_path,
                                 const std::string& extra) {
  return std::string(kCleanBin) + " --kb-snapshot=" + snapshot_path +
         " --rules=" + kDataDir + "/figure4.dr --input=" + kDataDir +
         "/table1.csv --output=" + TempPath("exit_out.csv") + " " + extra;
}

TEST(SnapshotExitCodes, BuildCleanAndRejectContract) {
  const std::string snapshot_path = TempPath("exit_kb.dkb");
  // Build a snapshot from the shipped KB, then clean from it: both succeed.
  EXPECT_EQ(ExitCode(std::string(kKbBuildBin) + " --kb=" + kDataDir +
                     "/figure1.nt --out=" + snapshot_path + " --verify"),
            0);
  EXPECT_EQ(ExitCode(SnapshotCleanCommand(snapshot_path, "")), 0);
  EXPECT_EQ(ExitCode(kKbBuildBin), 64);

  // A text KB handed to --kb-snapshot fails the magic sniff: exit 64.
  EXPECT_EQ(ExitCode(SnapshotCleanCommand(
                std::string(kDataDir) + "/figure1.nt", "")),
            64);

  // A bit-flipped payload fails the checksum: exit 64, not a crash.
  std::ifstream in(snapshot_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  const std::string corrupt_path = TempPath("exit_kb_corrupt.dkb");
  WriteFile(corrupt_path, bytes);
  EXPECT_EQ(ExitCode(SnapshotCleanCommand(corrupt_path, "")), 64);

  // A truncated snapshot is rejected the same way.
  const std::string truncated_path = TempPath("exit_kb_truncated.dkb");
  WriteFile(truncated_path, bytes.substr(0, bytes.size() / 3));
  EXPECT_EQ(ExitCode(SnapshotCleanCommand(truncated_path, "")), 64);

  // --kb and --kb-snapshot are mutually exclusive, one is required.
  EXPECT_EQ(ExitCode(CleanCommand("--kb-snapshot=" + snapshot_path)), 64);
}

TEST(IncrementalExitCodes, FlagContract) {
  // --delta without --prev-provenance (or with an incompatible algorithm or
  // robustness knob) is a usage error before any work starts.
  const std::string delta_path = TempPath("exit_delta.csv");
  WriteFile(delta_path, "row,Name,DOB,Country,Prize,Institution,City\n");
  EXPECT_EQ(ExitCode(CleanCommand("--delta=" + delta_path)), 64);
  const std::string provenance_path = TempPath("exit_prev_provenance.jsonl");
  ASSERT_EQ(ExitCode(CleanCommand("--explain-json=" + provenance_path)), 0);
  const std::string incremental_flags =
      "--delta=" + delta_path + " --prev-provenance=" + provenance_path;
  EXPECT_EQ(ExitCode(CleanCommand(incremental_flags + " --algorithm=basic")),
            64);
  EXPECT_EQ(ExitCode(CleanCommand(incremental_flags + " --max-rule-failures=1")),
            64);
  EXPECT_EQ(ExitCode(CleanCommand(incremental_flags + " --deadline-ms=1000")),
            64);
  // A well-formed incremental run over an empty delta succeeds.
  EXPECT_EQ(ExitCode(CleanCommand(incremental_flags)), 0);
  // A missing previous provenance file is a load failure, not usage.
  EXPECT_EQ(ExitCode(CleanCommand("--delta=" + delta_path +
                                  " --prev-provenance=/nonexistent.jsonl")),
            1);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// One provenance line of Table I's 6-column schema, in ToJson() form.
std::string ProofLine(int row, int column_index) {
  return "{\"row\": " + std::to_string(row) +
         ", \"column_index\": " + std::to_string(column_index) +
         ", \"column\": \"Name\", \"kind\": \"proof_positive\", "
         "\"rule\": \"phi1\", \"round\": 1, \"old_value\": \"x\", "
         "\"new_value\": \"x\", \"bindings\": [], \"evidence_edges\": [], "
         "\"marked_columns\": [\"Name\"]}\n";
}

TEST(IncrementalExitCodes, BadPreviousProvenanceIsOne) {
  // The previous log streams during the repair; a line FromJson rejects,
  // rows going backwards, and a column index outside the schema each fail
  // the run as a load/runtime failure.
  const std::string delta_path = TempPath("exit_bad_prev_delta.csv");
  WriteFile(delta_path, "row,Name,DOB,Country,Prize,Institution,City\n");
  const std::string good_path = TempPath("exit_bad_prev_good.jsonl");
  ASSERT_EQ(ExitCode(CleanCommand("--explain-json=" + good_path)), 0);
  const std::string good = ReadFile(good_path);
  ASSERT_FALSE(good.empty());
  auto run = [&](const std::string& name, const std::string& log) {
    const std::string path = TempPath(name);
    WriteFile(path, log);
    return ExitCode(CleanCommand("--delta=" + delta_path +
                                 " --prev-provenance=" + path +
                                 " --explain-json=" + TempPath("exit_bad_out.jsonl")));
  };
  EXPECT_EQ(run("exit_bad_prev_ok.jsonl", ProofLine(1, 0) + ProofLine(2, 0)), 0);
  EXPECT_EQ(run("exit_bad_prev_malformed.jsonl", good + "{\"row\": 3,\n"), 1);
  EXPECT_EQ(run("exit_bad_prev_backwards.jsonl", ProofLine(2, 0) + ProofLine(1, 0)),
            1);
  EXPECT_EQ(run("exit_bad_prev_column.jsonl", ProofLine(1, 0) + ProofLine(1, 99)),
            1);
  // A failed splice leaves no partial output behind.
  EXPECT_FALSE(std::ifstream(TempPath("exit_bad_out.jsonl.tmp")).good());
}

/// Rewrites each ToJson() line with "column_index" first, extra spaces and
/// a trailing carriage return: a log FromJsonLines accepts but whose lines
/// are not in ToJson() form.
std::string ReorderFields(const std::string& log) {
  std::string out;
  size_t start = 0;
  while (start < log.size()) {
    size_t end = log.find('\n', start);
    std::string line = log.substr(start, end - start);
    start = end + 1;
    const size_t row_end = line.find(", \"column_index\": ");
    const size_t index_end = line.find(", \"column\": ");
    if (row_end == std::string::npos || index_end == std::string::npos) {
      ADD_FAILURE() << "not a ToJson line: " << line;
      return log;
    }
    out += "{ " + line.substr(row_end + 2, index_end - row_end - 2) + " ,  " +
           line.substr(1, row_end - 1) + line.substr(index_end) + "\r\n";
  }
  return out;
}

TEST(IncrementalCli, ReorderedFieldLogGivesTheSameOutput) {
  // Lines not in ToJson() form are re-serialized instead of copied, so the
  // spliced log is the same as from the log detective_clean wrote.
  const std::string prev_path = TempPath("reorder_prev.jsonl");
  ASSERT_EQ(ExitCode(CleanCommand("--explain-json=" + prev_path)), 0);
  const std::string prev = ReadFile(prev_path);
  const std::string reordered_path = TempPath("reorder_prev_reordered.jsonl");
  WriteFile(reordered_path, ReorderFields(prev));
  ASSERT_NE(ReadFile(reordered_path), prev);

  const std::string delta_path = TempPath("reorder_delta.csv");
  WriteFile(delta_path,
            "row,Name,DOB,Country,Prize,Institution,City\n"
            "1,Marie Curie,1867-11-07,France,Nobel Prize in Chemistry,"
            "Pasteur Institute,Paris\n");
  std::string outputs[2][2];
  const std::string logs[2] = {prev_path, reordered_path};
  for (int i = 0; i < 2; ++i) {
    const std::string csv = TempPath("reorder_out_" + std::to_string(i) + ".csv");
    const std::string jsonl =
        TempPath("reorder_out_" + std::to_string(i) + ".jsonl");
    ASSERT_EQ(ExitCode(std::string(kCleanBin) + " --kb=" + kDataDir +
                       "/figure1.nt --rules=" + kDataDir +
                       "/figure4.dr --input=" + kDataDir + "/table1.csv" +
                       " --output=" + csv + " --delta=" + delta_path +
                       " --prev-provenance=" + logs[i] +
                       " --explain-json=" + jsonl),
              0);
    outputs[i][0] = ReadFile(csv);
    outputs[i][1] = ReadFile(jsonl);
  }
  EXPECT_FALSE(outputs[0][1].empty());
  EXPECT_EQ(outputs[0][0], outputs[1][0]);
  EXPECT_EQ(outputs[0][1], outputs[1][1]);
}

TEST(ExplainExitCodes, Contract) {
  std::string explain_path = TempPath("exit_explain.jsonl");
  std::string cmd =
      CleanCommand("--explain-json=" + explain_path);
  ASSERT_EQ(ExitCode(cmd), 0);
  EXPECT_EQ(
      ExitCode(std::string(kExplainBin) + " --explain-json=" + explain_path),
      0);
  EXPECT_EQ(ExitCode(std::string(kExplainBin) +
                     " --explain-json=/nonexistent.jsonl"),
            1);
  EXPECT_EQ(ExitCode(kExplainBin), 64);
  EXPECT_EQ(ExitCode(std::string(kExplainBin) + " --explain-json=" +
                     explain_path + " --cell=notacell"),
            64);
}

// detective_rulegen loads its KB through the shared loader, so a `.tsv` KB
// is read as TSV (an N-Triples read of it fails with exit 1).
TEST(RulegenExitCodes, TsvKbLoadsLikeEveryOtherTool) {
  auto kb = LoadKbFile(std::string(kDataDir) + "/figure1.nt");
  ASSERT_TRUE(kb.ok()) << kb.status().ToString();
  const std::string tsv_path = TempPath("rulegen_kb.tsv");
  WriteFile(tsv_path, ToTsvTriples(*kb));
  const std::string positives = TempPath("rulegen_pos.csv");
  const std::string negatives = TempPath("rulegen_neg.csv");
  WriteFile(positives,
            "Name,Country\nAvram Hershko,Israel\nMarie Curie,France\n"
            "Roald Hoffmann,United States\nMelvin Calvin,United States\n");
  WriteFile(negatives,
            "Name,Country\nAvram Hershko,Hungary\nRoald Hoffmann,Ukraine\n");
  auto rulegen = [&](const std::string& kb_path) {
    return ExitCode(std::string(kRulegenBin) + " --kb=" + kb_path +
                    " --positives=" + positives + " --negatives=" + negatives +
                    " --target=Country --out=" + TempPath("rulegen_out.dr"));
  };
  EXPECT_EQ(rulegen(std::string(kDataDir) + "/figure1.nt"), 0);
  EXPECT_EQ(rulegen(tsv_path), 0);
  EXPECT_EQ(rulegen("/nonexistent.tsv"), 1);
  EXPECT_EQ(ExitCode(kRulegenBin), 64);
}

}  // namespace
}  // namespace detective
