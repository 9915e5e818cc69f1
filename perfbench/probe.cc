// pb_probe — in-process side of the benchmark.
//
//   pb_probe rescore --model M --stats S --pairs PAIRS.tsv
//       Loads the bundle the way mbserved does and prints, for every
//       "a<TAB>b" row of PAIRS.tsv, PredictPairMargin(a, b) with 17
//       significant digits. Snippets are parsed from the wire text as the
//       protocol defines it: lines split at '|', each line tokenized. The
//       served margin for the same row must equal this bit for bit.
//
//   pb_probe layers --corpus C --adgroups N --seed S --model M --stats S
//                   --pairs PAIRS.tsv --requests REQUESTS.jsonl --scratch DIR
//                   --out LAYERS.json --spans SPANS.json
//       Times calls into each module's public functions on the workload's
//       own inputs: C is the training corpus (generated by mbctl with N
//       adgroups and seed S), M/S the packed bundle, PAIRS.tsv the sibling
//       pairs of the request corpus in wire text and REQUESTS.jsonl the
//       request lines the load client sends; DIR takes the artifacts the
//       probe writes. Per-call timings are reported
//       as medians over calls; whole-stage timings as the median of a few
//       repetitions. Every timed call is also recorded as a span.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "corpus/generator.h"
#include "corpus/pair_extraction.h"
#include "io/pack_artifacts.h"
#include "io/serialization.h"
#include "microbrowse/classifier.h"
#include "microbrowse/optimizer.h"
#include "microbrowse/rewrite.h"
#include "microbrowse/stats_db.h"
#include "serve/bundle.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "text/diff.h"
#include "text/ngram.h"
#include "text/snippet.h"

using namespace microbrowse;

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "pb_probe: %s\n", message.c_str());
  std::exit(2);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) Die(std::string("flag ") + argv[i] + " needs a value");
    flags[argv[i]] = argv[i + 1];
  }
  return flags;
}

std::string Need(const std::map<std::string, std::string>& flags, const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) Die(key + " is required");
  return it->second;
}

Snippet FromWire(const std::string& field) { return Snippet::FromLines(Split(field, '|')); }

std::vector<std::pair<std::string, std::string>> ReadPairs(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::pair<std::string, std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = Split(line, '\t');
    if (cells.size() != 2) Die("expected 'a<TAB>b' in " + path);
    rows.emplace_back(cells[0], cells[1]);
  }
  return rows;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

std::shared_ptr<const serve::ModelBundle> MustLoadBundle(const std::string& model,
                                                         const std::string& stats) {
  serve::BundlePaths paths;
  paths.model_path = model;
  paths.stats_path = stats;
  auto bundle = serve::LoadBundle(paths, 1);
  if (!bundle.ok()) Die("LoadBundle: " + bundle.status().ToString());
  return *bundle;
}

int Rescore(const std::map<std::string, std::string>& flags) {
  const auto bundle = MustLoadBundle(Need(flags, "--model"), Need(flags, "--stats"));
  // One mutable registry pair across all rows, as the serving workers keep.
  FeatureRegistry t_registry = bundle->classifier.t_registry;
  FeatureRegistry p_registry = bundle->classifier.p_registry;
  for (const auto& [a, b] : ReadPairs(Need(flags, "--pairs"))) {
    const double margin =
        PredictPairMargin(FromWire(a), FromWire(b), bundle->stats, bundle->config,
                          bundle->classifier.model, &t_registry, &p_registry);
    std::printf("%.17g\n", margin);
  }
  return 0;
}

struct Span {
  std::string name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
};

/// Times calls and keeps one span per call, in memory until WriteSpans.
class Recorder {
 public:
  /// Opens a layer span; calls timed until CloseLayer are its children.
  void OpenLayer(const std::string& name) {
    layer_ = next_id_++;
    layer_name_ = name;
    layer_start_ = NowNs();
  }
  void CloseLayer() {
    spans_.push_back(Span{layer_name_, layer_start_, NowNs(), layer_, 0});
    layer_ = 0;
  }

  /// Runs `fn` once and returns its duration in seconds.
  double Time(const std::string& name, const std::function<void()>& fn) {
    const int64_t start = NowNs();
    fn();
    const int64_t end = NowNs();
    spans_.push_back(Span{name, start, end, next_id_++, layer_});
    return (end - start) / 1e9;
  }

  bool WriteSpans(const std::string& path) const {
    std::ofstream out(path);
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"start_us\":"
          << (span.start_ns - origin) / 1000.0
          << ",\"end_us\":" << (span.end_ns - origin) / 1000.0 << "}";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  uint64_t layer_ = 0;
  std::string layer_name_;
  int64_t layer_start_ = 0;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Median per-call time in microseconds of `fn(i)` over i in [0, n).
double PerCallUs(Recorder& recorder, const std::string& name, size_t n,
                 const std::function<void(size_t)>& fn) {
  recorder.OpenLayer(name);
  std::vector<double> times;
  times.reserve(n);
  for (size_t i = 0; i < n; ++i) times.push_back(recorder.Time(name, [&] { fn(i); }) * 1e6);
  recorder.CloseLayer();
  return Median(times);
}

/// Median over `reps` repetitions of one whole-stage call, in seconds.
double StageS(Recorder& recorder, const std::string& name, int reps,
              const std::function<void()>& fn) {
  recorder.OpenLayer(name);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) times.push_back(recorder.Time(name, fn));
  recorder.CloseLayer();
  return Median(times);
}

int64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

template <typename T>
T MustOk(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

int Layers(const std::map<std::string, std::string>& flags) {
  const std::string corpus_path = Need(flags, "--corpus");
  const std::string out_dir = Need(flags, "--scratch");
  std::map<std::string, double> m;
  Recorder rec;

  // Training side, on the training corpus.
  AdCorpusOptions gen_options;
  gen_options.num_adgroups = std::stoi(Need(flags, "--adgroups"));
  gen_options.seed = std::stoull(Need(flags, "--seed"));
  m["corpus.generate_s"] = StageS(rec, "corpus.generate", 3, [&] {
    MustOk(GenerateAdCorpus(gen_options), "GenerateAdCorpus");
  });
  AdCorpus corpus;
  m["io.load_corpus_s"] = StageS(rec, "io.load_corpus", 3, [&] {
    corpus = MustOk(LoadAdCorpus(corpus_path), "LoadAdCorpus");
  });
  PairCorpus pairs;
  m["corpus.extract_pairs_s"] = StageS(rec, "corpus.extract_pairs", 3, [&] {
    pairs = ExtractSignificantPairs(corpus, {});
  });
  m["corpus.pairs"] = static_cast<double>(pairs.pairs.size());
  FeatureStatsDb db;
  m["microbrowse.stats_build_s"] = StageS(rec, "microbrowse.stats_build", 1, [&] {
    db = BuildFeatureStats(pairs, {});
  });
  const ClassifierConfig config = ClassifierConfig::M6();
  CoupledDataset dataset;
  m["microbrowse.dataset_build_s"] = StageS(rec, "microbrowse.dataset_build", 1, [&] {
    dataset = BuildClassifierDataset(pairs, db, config, /*seed=*/99);
  });
  CoupledCsr csr;
  m["ml.flatten_s"] = StageS(rec, "ml.flatten", 3, [&] { csr = FlattenCoupledDataset(dataset); });
  SnippetClassifierModel model;
  m["ml.solver_s"] = StageS(rec, "ml.solver", 3, [&] {
    model = MustOk(TrainSnippetClassifier(csr, config), "TrainSnippetClassifier");
  });
  const std::string stats_tsv = out_dir + "/probe_stats.tsv";
  const std::string model_tsv = out_dir + "/probe_model.txt";
  const std::string stats_pack = out_dir + "/probe_stats.mbp";
  const std::string model_pack = out_dir + "/probe_model.mbp";
  m["io.save_tsv_s"] = StageS(rec, "io.save_tsv", 3, [&] {
    MustOk(SaveFeatureStats(db, stats_tsv), "SaveFeatureStats");
    MustOk(SaveClassifier(model, dataset.t_registry, dataset.p_registry, model_tsv),
           "SaveClassifier");
  });
  m["pack.save_s"] = StageS(rec, "pack.save", 3, [&] {
    MustOk(SaveStatsPack(db, stats_pack), "SaveStatsPack");
    MustOk(SaveClassifierPack(model, dataset.t_registry, dataset.p_registry, model_pack),
           "SaveClassifierPack");
  });
  m["pack.bytes"] = static_cast<double>(FileBytes(stats_pack) + FileBytes(model_pack));

  // Serving side, on the bundle the server runs and the request corpus.
  const std::string bundle_model = Need(flags, "--model");
  const std::string bundle_stats = Need(flags, "--stats");
  m["pack.open_ms"] = 1e3 * StageS(rec, "pack.open", 5, [&] {
                        MustOk(LoadStatsPack(bundle_stats), "LoadStatsPack");
                        MustOk(LoadClassifierPack(bundle_model), "LoadClassifierPack");
                      });
  std::shared_ptr<const serve::ModelBundle> bundle;
  m["serve.load_bundle_ms"] = 1e3 * StageS(rec, "serve.load_bundle", 5, [&] {
                                bundle = MustLoadBundle(bundle_model, bundle_stats);
                              });
  m["microbrowse.t_features"] = static_cast<double>(bundle->classifier.t_registry.size());
  m["microbrowse.p_features"] = static_cast<double>(bundle->classifier.p_registry.size());

  const auto wire = ReadPairs(Need(flags, "--pairs"));
  if (wire.empty()) Die("no pairs to time");
  const size_t n = wire.size();
  std::vector<Snippet> a(n), b(n);
  m["text.tokenize_us"] = PerCallUs(rec, "text.tokenize", 2 * n, [&](size_t i) {
    (i % 2 ? b[i / 2] : a[i / 2]) = FromWire(i % 2 ? wire[i / 2].second : wire[i / 2].first);
  });
  m["text.ngrams_us"] = PerCallUs(rec, "text.ngrams", n, [&](size_t i) {
    const auto grams = ExtractNGrams(a[i]);
    if (grams.empty() && a[i].num_tokens() > 0) Die("no n-grams from a non-empty snippet");
  });
  m["text.diff_us"] = PerCallUs(rec, "text.diff", n, [&](size_t i) {
    const int lines = std::min(a[i].num_lines(), b[i].num_lines());
    for (int l = 0; l < lines; ++l) TokenDiff(a[i].line(l), b[i].line(l));
  });
  m["microbrowse.match_nodb_us"] = PerCallUs(rec, "microbrowse.match_nodb", n, [&](size_t i) {
    MatchRewrites(a[i], b[i], nullptr);
  });
  double rewrites = 0, unmatched = 0;
  m["microbrowse.match_us"] = PerCallUs(rec, "microbrowse.match", n, [&](size_t i) {
    const PairDiff diff = MatchRewrites(a[i], b[i], &bundle->stats);
    rewrites += static_cast<double>(diff.rewrites.size());
    unmatched += static_cast<double>(diff.r_only.size() + diff.s_only.size());
  });
  m["microbrowse.rewrites_per_pair"] = rewrites / static_cast<double>(n);
  m["microbrowse.unmatched_per_pair"] = unmatched / static_cast<double>(n);
  FeatureRegistry t_registry = bundle->classifier.t_registry;
  FeatureRegistry p_registry = bundle->classifier.p_registry;
  std::vector<CoupledOccurrence> occurrences;
  m["microbrowse.extract_us"] = PerCallUs(rec, "microbrowse.extract", n, [&](size_t i) {
    occurrences.clear();
    ExtractPairOccurrences(a[i], b[i], bundle->stats, bundle->config, &t_registry, &p_registry,
                           &occurrences);
  });
  m["microbrowse.predict_pair_us"] =
      PerCallUs(rec, "microbrowse.predict_pair", n, [&](size_t i) {
        PredictPairMargin(a[i], b[i], bundle->stats, bundle->config, bundle->classifier.model,
                          &t_registry, &p_registry);
      });
  m["microbrowse.predict_ctr_us"] = PerCallUs(rec, "microbrowse.predict_ctr", n, [&](size_t i) {
    bundle->predictor->Score(a[i]);
  });

  const std::vector<std::string> requests = ReadLines(Need(flags, "--requests"));
  if (requests.empty()) Die("no requests to time");
  serve::Request parsed;
  m["serve.parse_us"] = PerCallUs(rec, "serve.parse", requests.size(), [&](size_t i) {
    MustOk(serve::ParseRequestInto(requests[i], &parsed), "ParseRequestInto");
  });
  serve::BundleRegistry registry;
  serve::BundlePaths paths;
  paths.model_path = bundle_model;
  paths.stats_path = bundle_stats;
  MustOk(registry.LoadInitial(paths), "LoadInitial");
  serve::ScoringService service(&registry);
  std::string response;
  const auto handle = [&](size_t i) {
    service.HandleLineTo(requests[i], &response);
    if (response.find("\"ok\":true") == std::string::npos) Die("request failed: " + response);
  };
  m["serve.handle_miss_us"] = PerCallUs(rec, "serve.handle_miss", requests.size(), handle);
  m["serve.handle_hit_us"] = PerCallUs(rec, "serve.handle_hit", requests.size(), handle);

  std::ofstream out(Need(flags, "--out"));
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    out << (first ? "" : ",") << "\"" << name << "\":" << value;
    first = false;
  }
  out << "}\n";
  if (!out) Die("cannot write layer metrics");
  if (!rec.WriteSpans(Need(flags, "--spans"))) Die("cannot write spans");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: pb_probe rescore|layers --flag value ...");
  const std::string mode = argv[1];
  const auto flags = ParseFlags(argc, argv);
  if (mode == "rescore") return Rescore(flags);
  if (mode == "layers") return Layers(flags);
  Die("unknown mode " + mode);
}
