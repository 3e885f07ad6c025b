// detective_rulegen: generates candidate detective rules from example files
// (the paper's §III-A workflow, S1-S3, from the command line).
//
//   detective_rulegen --kb=KB.nt --positives=GOOD.csv --negatives=BAD.csv
//                     --target=COLUMN --out=RULES.dr
//                     [--min-support=0.6] [--paths]
//
// The KB is read by the loader every tool shares: N-Triples, or TSV triples
// when the file name ends in .tsv.
//
// positives: tuples whose values are all correct; negatives: tuples where
// only the target column is wrong. The generated candidates are written to
// --out for the user to review (the paper: "the number is not large so the
// user can manually pick").

#include <cstdio>
#include <string>

#include "common/string_util.h"
#include "core/rule_generation.h"
#include "core/rule_io.h"
#include "kb/ntriples_parser.h"
#include "relation/relation.h"

namespace detective {
namespace {

struct Args {
  std::string kb_path;
  std::string positives_path;
  std::string negatives_path;
  std::string target;
  std::string out_path;
  double min_support = 0.6;
  bool paths = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto take = [&](std::string_view name, std::string* out) {
      std::string prefix = std::string("--") + std::string(name) + "=";
      if (StartsWith(arg, prefix)) {
        *out = std::string(arg.substr(prefix.size()));
        return true;
      }
      return false;
    };
    std::string support;
    if (take("kb", &args->kb_path) || take("positives", &args->positives_path) ||
        take("negatives", &args->negatives_path) || take("target", &args->target) ||
        take("out", &args->out_path)) {
      continue;
    }
    if (take("min-support", &support)) {
      if (!ParseDouble(support, &args->min_support)) return false;
      continue;
    }
    if (arg == "--paths") {
      args->paths = true;
      continue;
    }
    std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
    return false;
  }
  return !args->kb_path.empty() && !args->positives_path.empty() &&
         !args->negatives_path.empty() && !args->target.empty() &&
         !args->out_path.empty();
}

int Run(const Args& args) {
  auto kb = LoadKbFile(args.kb_path);
  if (!kb.ok()) {
    std::fprintf(stderr, "error loading KB: %s\n", kb.status().ToString().c_str());
    return 1;
  }
  auto positives = Relation::FromCsvFile(args.positives_path);
  auto negatives = Relation::FromCsvFile(args.negatives_path);
  if (!positives.ok() || !negatives.ok()) {
    std::fprintf(stderr, "error loading examples: %s / %s\n",
                 positives.status().ToString().c_str(),
                 negatives.status().ToString().c_str());
    return 1;
  }
  std::printf("KB: %s\n%zu positive / %zu negative examples, target '%s'\n",
              kb->DebugSummary().c_str(), positives->num_tuples(),
              negatives->num_tuples(), args.target.c_str());

  DiscoveryOptions options;
  options.min_support = args.min_support;
  options.discover_paths = args.paths;
  auto rules = GenerateRules(*kb, *positives, *negatives, args.target, options);
  if (!rules.ok()) {
    std::fprintf(stderr, "rule generation failed: %s\n",
                 rules.status().ToString().c_str());
    return 1;
  }
  if (rules->empty()) {
    std::fprintf(stderr,
                 "no candidate rules found — check that the negatives' wrong "
                 "values carry a KB-expressible semantics%s\n",
                 args.paths ? "" : " (try --paths)");
    return 2;
  }
  Status st = WriteRulesFile(args.out_path, *rules);
  if (!st.ok()) {
    std::fprintf(stderr, "error writing rules: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%zu candidate rule(s) written to %s — review before use:\n\n%s",
              rules->size(), args.out_path.c_str(), FormatRules(*rules).c_str());
  return 0;
}

}  // namespace
}  // namespace detective

int main(int argc, char** argv) {
  detective::Args args;
  if (!detective::ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: detective_rulegen --kb=KB.nt --positives=GOOD.csv\n"
        "                         --negatives=BAD.csv --target=COLUMN\n"
        "                         --out=RULES.dr [--min-support=0.6] [--paths]\n");
    return 64;
  }
  return detective::Run(args);
}
