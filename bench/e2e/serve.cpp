// Serving workloads: serve_hot and serve_release, both on one
// service::Cluster of 2 gateways x 2 dispatchers over 8 nodes
// (2x ault23 + devbox + aurora per gateway slice). One generator thread
// drives an open loop (Poisson arrivals at a fixed rate) and then a
// closed loop that keeps 4 requests outstanding.
//
// Request latency is the generator's lateness at send plus the
// cluster-reported admission-to-completion time, so a stall shows up in
// every request queued behind it. Every completion must carry the
// numerics digest of a direct deploy+run of its class on its node
// model, and every direct run must match golden.json.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "apps/minilulesh.hpp"
#include "apps/minimd.hpp"
#include "bench/e2e/common.hpp"
#include "bench/e2e/trace.hpp"
#include "common/rng.hpp"
#include "service/cluster.hpp"
#include "xaas/ir_deploy.hpp"
#include "xaas/ir_pipeline.hpp"

namespace xaas::e2e {
namespace {

// Light requests: each VM run stays under a millisecond, so latency is
// almost entirely request-path overhead.
constexpr apps::MdWorkloadParams kMdLight{32, 8, 2, 32};
constexpr int kLuleshElements = 256;
constexpr int kLuleshSteps = 4;

constexpr std::size_t kGateways = 2;
constexpr std::size_t kDispatchers = 2;
constexpr int kOutstanding = 4;  // closed-loop window
/// serve_hot's tail windows: >= 1000 requests each at 1000 req/s, so
/// that even p99 has ten samples beyond it.
constexpr double kHotWindowSeconds = 1.25;
/// serve_release: new minimd versions published during the timed open
/// loop (version 0 is warm before timing starts); each release interval
/// is one tail window (>= 1000 requests at 600 req/s).
constexpr int kReleases = 8;
/// serve_release: versions published and served, untimed, before the
/// timed open loop. The first few releases after start-up lower several
/// times slower than later ones (and not in every run), which made the
/// early windows of a run unlike the rest.
constexpr int kWarmupReleases = 2;
constexpr int kVersions = 1 + kWarmupReleases + kReleases;
/// Share of --seconds spent in the open loop; the closed loop gets the
/// rest.
constexpr double kOpenShare = 0.75;
constexpr int kBaseModules = 48;
/// The generator sleeps until this long before each send, then spins:
/// its own wake-up latency would otherwise enter every measurement.
constexpr auto kSpinLead = std::chrono::microseconds(300);

void wait_until(Clock::time_point due) {
  if (Clock::now() < due - kSpinLead) {
    std::this_thread::sleep_until(due - kSpinLead);
  }
  while (Clock::now() < due) {
  }
}

const char* const kSliceModels[] = {"ault23", "ault23", "devbox", "aurora"};

std::vector<vm::NodeSpec> cluster_fleet() {
  std::vector<vm::NodeSpec> fleet;
  std::map<std::string, int> next;
  for (std::size_t g = 0; g < kGateways; ++g) {
    for (const char* model : kSliceModels) {
      vm::NodeSpec node = vm::node(model);
      node.name = std::string(model) + "-" + std::to_string(next[model]++);
      fleet.push_back(std::move(node));
    }
  }
  return fleet;
}

std::vector<std::string> fleet_models() {
  return {"ault23", "devbox", "aurora"};
}

vm::Workload make_workload(const std::string& name) {
  if (name == "lulesh-light") {
    return apps::minilulesh_workload(kLuleshElements, kLuleshSteps);
  }
  return apps::minimd_workload(kMdLight);
}

/// One published image pair (IR + source) of one application version.
struct Release {
  std::string app_name;
  std::string version;
  Application app;
  IrBuildOptions build_options;
  bool has_source = false;
  std::string ir_tag;
  std::string src_tag;
  container::Image ir_image;
  container::Image src_image;
};

/// Everything a RunRequest carries except the workload instance.
struct RequestClass {
  std::string name;
  std::size_t release = 0;  // index into Catalog::releases
  bool source = false;
  std::map<std::string, std::string> selections;
  int opt_level = 2;
  std::string workload;
};

struct Catalog {
  std::vector<Release> releases;
  std::vector<RequestClass> classes;
  /// serve_release: per minimd version, its IR classes and source class.
  std::vector<std::vector<std::size_t>> ir_of_version;
  std::vector<std::size_t> src_of_version;
};

/// The release pipeline: build the IR container (and the source image).
bool build_release(Release& release, std::string* error) {
  auto build = [&] {
    trace::Span span("xaas/ir_pipeline", "build_ir_container");
    return build_ir_container(release.app, isa::Arch::X86_64,
                              release.build_options);
  }();
  if (!build.ok) {
    *error = "IR build of " + release.app_name + "@" + release.version +
             " failed: " + build.error;
    return false;
  }
  release.ir_image = std::move(build.image);
  if (release.has_source) {
    trace::Span span("xaas/source_container", "build_source_image");
    release.src_image = build_source_image(release.app, isa::Arch::X86_64);
  }
  return true;
}

Release minimd_release(int modules, bool with_source) {
  Release release;
  release.app_name = "minimd";
  release.version = "m" + std::to_string(modules);
  apps::MinimdOptions options;
  options.module_count = modules;
  options.gpu_module_count = 4;
  release.app = apps::make_minimd(options);
  release.build_options.points = {
      {"MD_SIMD", {"SSE4.1", "AVX2_256", "AVX_512"}}};
  release.build_options.threads = 1;
  release.has_source = with_source;
  release.ir_tag = "spcl/minimd:ir-" + release.version;
  release.src_tag = "spcl/minimd:src-" + release.version;
  return release;
}

bool make_hot_catalog(Catalog& catalog, std::string* error) {
  catalog.releases.push_back(minimd_release(kBaseModules, false));
  Release lulesh;
  lulesh.app_name = "minilulesh";
  lulesh.version = "v0";
  lulesh.app = apps::make_minilulesh();
  lulesh.build_options.points = {{"LULESH_OPENMP", {"ON", "OFF"}}};
  lulesh.build_options.threads = 1;
  lulesh.ir_tag = "spcl/minilulesh:ir-v0";
  catalog.releases.push_back(std::move(lulesh));
  for (Release& release : catalog.releases) {
    if (!build_release(release, error)) return false;
  }
  for (const char* simd : {"SSE4.1", "AVX2_256", "AVX_512"}) {
    catalog.classes.push_back({std::string("minimd ir MD_SIMD=") + simd, 0,
                               false, {{"MD_SIMD", simd}}, 2, "md-light"});
  }
  catalog.classes.push_back({"minilulesh ir LULESH_OPENMP=ON", 1, false,
                             {{"LULESH_OPENMP", "ON"}}, 2, "lulesh-light"});
  return true;
}

bool make_release_catalog(Catalog& catalog, std::string* error) {
  for (int v = 0; v < kVersions; ++v) {
    catalog.releases.push_back(minimd_release(kBaseModules + v, true));
    if (!build_release(catalog.releases.back(), error)) return false;
    const std::size_t index = catalog.releases.size() - 1;
    const std::string& version = catalog.releases[index].version;
    std::vector<std::size_t> ir;
    for (const char* simd : {"SSE4.1", "AVX2_256", "AVX_512"}) {
      for (const int opt : {1, 2, 3}) {
        ir.push_back(catalog.classes.size());
        catalog.classes.push_back({"minimd@" + version + " ir MD_SIMD=" +
                                       simd + " O" + std::to_string(opt),
                                   index, false, {{"MD_SIMD", simd}}, opt,
                                   "md-light"});
      }
    }
    catalog.ir_of_version.push_back(std::move(ir));
    catalog.src_of_version.push_back(catalog.classes.size());
    catalog.classes.push_back({"minimd@" + version + " source auto-specialized",
                               index, true, {}, 2, "md-light"});
  }
  return true;
}

service::RunRequest make_request(const Catalog& catalog,
                                 const RequestClass& cls) {
  const Release& release = catalog.releases[cls.release];
  service::RunRequest request;
  request.image_reference = cls.source ? release.src_tag : release.ir_tag;
  request.selections = cls.selections;
  request.opt_level = cls.opt_level;
  request.auto_specialize = true;
  request.workload = make_workload(cls.workload);
  request.threads = 1;
  return request;
}

/// Direct deploy+run of every class on every node model: the references
/// served results must reproduce bit for bit.
bool compute_references(const Catalog& catalog, Golden& golden,
                        std::map<std::pair<std::size_t, std::string>,
                                 DirectResult>& out,
                        std::string* error) {
  for (std::size_t c = 0; c < catalog.classes.size(); ++c) {
    const RequestClass& cls = catalog.classes[c];
    const Release& release = catalog.releases[cls.release];
    for (const std::string& model : fleet_models()) {
      const vm::NodeSpec& node = vm::node(model);
      DeployedApp deployed;
      if (cls.source) {
        SourceDeployOptions options;
        options.opt_level = cls.opt_level;
        deployed = deploy_source_container(release.src_image, release.app,
                                           node, options);
      } else {
        IrDeployOptions options;
        options.selections = cls.selections;
        options.opt_level = cls.opt_level;
        deployed = deploy_ir_container(release.ir_image, node, options);
      }
      DirectResult direct = direct_run(
          deployed, node, make_workload(cls.workload), 1, golden,
          golden_key(release.app_name, release.version, deployed,
                     cls.workload));
      if (!direct.ok) {
        *error = cls.name + " on " + model + ": " + direct.error;
        return false;
      }
      out[{c, model}] = std::move(direct);
    }
  }
  return true;
}

service::ClusterOptions cluster_options(const std::string& artifact_root) {
  service::ClusterOptions options;
  options.gateways = kGateways;
  options.dispatchers_per_gateway = kDispatchers;
  options.max_pending = 8192;
  options.gateway.max_queue = 1024;
  options.artifact_root = artifact_root;
  return options;
}

void publish(service::Cluster& cluster, const Release& release) {
  trace::Span span("service/cluster", "Cluster::push");
  cluster.push(release.ir_image, release.ir_tag);
  if (release.has_source) cluster.push(release.src_image, release.src_tag);
}

/// Warm `classes` on every gateway and every node of its slice: each
/// gateway routes round-robin among idle compatible nodes, so one
/// sequential submission per slice node reaches every node model.
bool warm(service::Cluster& cluster, const Catalog& catalog,
          const std::vector<std::size_t>& classes, std::string* error) {
  trace::Span span("setup", "warm");
  const std::size_t per_slice = std::size(kSliceModels);
  for (std::size_t g = 0; g < cluster.gateway_count(); ++g) {
    for (const std::size_t c : classes) {
      for (std::size_t k = 0; k < per_slice; ++k) {
        const auto result =
            cluster.gateway(g).submit(make_request(catalog, catalog.classes[c]))
                .get();
        if (!result.ok) {
          *error = "warm-up of " + catalog.classes[c].name + " failed: " +
                   result.error;
          return false;
        }
      }
    }
  }
  return true;
}

/// One request of a timed phase in flight, as the generator saw it.
struct Sent {
  std::uint64_t id = 0;
  std::size_t cls = 0;
  double at = 0.0;  // scheduled offset from the open loop's start, seconds
  Clock::time_point due;
  Clock::time_point sent;
  std::future<service::ClusterRunResult> future;
};

/// What the open loop keeps of each finished request: the numbers the
/// metrics need, not the result. Results are checked and dropped as they
/// are collected (the closed loop does the same), so the benchmark's own
/// memory does not grow with the run and peak_rss_mb measures the
/// program.
struct OpenSamples {
  // One entry per request, seconds.
  std::vector<double> at;       // scheduled send offset
  std::vector<double> latency;  // lateness + cluster total
  std::vector<double> late;
  // Stage times of the requests that succeeded, seconds.
  std::vector<double> cluster_wait, queue, run, other;
  std::vector<double> deploy_hit, deploy_miss_ir, deploy_miss_src;
  // Latency of the requests that lowered or built their specialization.
  std::vector<double> cold_ir, cold_src;
  Clock::time_point last_sent;
  Clock::time_point last_completion;
};

/// Draws from a fixed multiset in seeded random order, reshuffling when
/// it runs out: every `size()` consecutive draws hold the exact
/// proportions, so the request mix does not vary from seed to seed.
template <typename T>
class ShuffleBag {
public:
  explicit ShuffleBag(std::vector<T> items)
      : items_(std::move(items)), next_(items_.size()) {}

  T draw(common::Rng& rng) {
    if (next_ == items_.size()) {
      for (std::size_t i = items_.size(); i > 1; --i) {
        std::swap(items_[i - 1], items_[rng.next_below(i)]);
      }
      next_ = 0;
    }
    return items_[next_++];
  }

private:
  std::vector<T> items_;
  std::size_t next_;
};

/// Poisson arrival schedule (offsets from phase start) with class draws.
struct Arrival {
  double at = 0.0;
  std::size_t cls = 0;
};

class ServeRun {
public:
  ServeRun(const Options& options, Golden& golden, bool release)
      : options_(options), golden_(golden), release_(release) {}

  Report run();

private:
  std::size_t draw_class(common::Rng& rng, int latest, double rollout);
  /// Poisson arrivals over `duration`. serve_release splits it into
  /// `releases` equal intervals and publishes version first_version + k
  /// at the start of the k-th.
  std::vector<Arrival> open_schedule(common::Rng& rng, double duration,
                                     double rate, int first_version,
                                     int releases);
  bool setup_once(int index, std::string* error);
  void open_loop(const std::vector<Arrival>& arrivals, int first_version,
                 int releases, double interval, OpenSamples& samples);
  void complete_open(Sent& sent, OpenSamples& samples);
  double closed_loop(common::Rng& rng, double duration);
  void check(std::size_t cls, const service::ClusterRunResult& result);
  void record_spans(const Sent& sent,
                    const service::ClusterRunResult& result) const;
  std::map<std::string, double> counters() const;

  const Options& options_;
  Golden& golden_;
  const bool release_;
  Report report_;
  Catalog catalog_;
  std::map<std::pair<std::size_t, std::string>, DirectResult> references_;
  std::unique_ptr<service::Cluster> cluster_;
  std::unique_ptr<ScopedDir> artifacts_;
  int published_ = 0;  // newest minimd version pushed (serve_release)
  std::uint64_t next_request_ = 1;
  // Request-mix draws; sized in run() once the catalog exists.
  ShuffleBag<std::size_t> hot_bag_{{}};
  ShuffleBag<char> version_bag_{{'L', 'L', 'L', 'L', 'L', 'L', 'L', 'P',
                                 'P', 'O'}};
  ShuffleBag<char> kind_bag_{[] {
    std::vector<char> kinds(50, 'I');  // 11 of 50 = 22% source builds
    std::fill(kinds.begin(), kinds.begin() + 11, 'S');
    return kinds;
  }()};
  ShuffleBag<std::size_t> ir_bag_{{0, 1, 2, 3, 4, 5, 6, 7, 8}};
};

std::size_t ServeRun::draw_class(common::Rng& rng, int latest,
                                 double rollout) {
  if (!release_) return hot_bag_.draw(rng);
  // 70% latest, 20% previous, 10% any older version. A fresh release is
  // rolled out progressively: only `rollout` of the latest-version share
  // reaches it yet, the rest stays on the previous version.
  int version = latest;
  char slot = version_bag_.draw(rng);
  if (slot == 'L' && rollout < 1.0 && rng.next_double() >= rollout) slot = 'P';
  if (slot != 'L' && latest >= 1) {
    version = latest - 1;
    if (slot == 'O' && latest >= 2) {
      version = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(latest - 1)));
    }
  }
  const auto v = static_cast<std::size_t>(version);
  // 78% light IR (3 SIMD x opt 1-3), 22% source builds.
  if (kind_bag_.draw(rng) == 'S') return catalog_.src_of_version[v];
  return catalog_.ir_of_version[v][ir_bag_.draw(rng)];
}

std::vector<Arrival> ServeRun::open_schedule(common::Rng& rng,
                                             double duration, double rate,
                                             int first_version,
                                             int releases) {
  const double interval = duration / releases;
  std::vector<Arrival> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= duration) break;
    int latest = 0;
    double rollout = 1.0;
    if (release_) {
      const int k = std::min(releases - 1, static_cast<int>(t / interval));
      latest = first_version + k;
      // The rollout reaches the full share halfway through the interval,
      // so cold specializations spread out instead of arriving at once.
      rollout = std::min(1.0, 2.0 * (t / interval - k));
    }
    arrivals.push_back({t, draw_class(rng, latest, rollout)});
  }
  return arrivals;
}

bool ServeRun::setup_once(int index, std::string* error) {
  trace::Span span("setup", "setup");
  cluster_.reset();
  artifacts_.reset();
  std::string root;
  if (release_) {
    artifacts_ = std::make_unique<ScopedDir>(
        options_.work_dir + "/artifacts/serve_release-" +
        std::to_string(::getpid()) + "-" + std::to_string(index));
    root = artifacts_->path();
  }
  // The releases served from the start go through the whole pipeline:
  // build, bring the cluster up, publish, warm.
  const std::size_t initial = release_ ? 1 : catalog_.releases.size();
  for (std::size_t r = 0; r < initial; ++r) {
    if (!build_release(catalog_.releases[r], error)) return false;
  }
  cluster_ = std::make_unique<service::Cluster>(cluster_fleet(),
                                                cluster_options(root));
  for (std::size_t r = 0; r < initial; ++r) {
    publish(*cluster_, catalog_.releases[r]);
  }
  std::vector<std::size_t> warm_classes;
  if (release_) {
    warm_classes = catalog_.ir_of_version[0];
    warm_classes.push_back(catalog_.src_of_version[0]);
  } else {
    for (std::size_t c = 0; c < catalog_.classes.size(); ++c) {
      warm_classes.push_back(c);
    }
  }
  published_ = 0;
  if (!warm(*cluster_, catalog_, warm_classes, error)) return false;
  if (release_) cluster_->distribution_flush();
  sample_rss();
  return true;
}

void ServeRun::open_loop(const std::vector<Arrival>& arrivals,
                         int first_version, int releases, double interval,
                         OpenSamples& samples) {
  std::vector<Sent> sent;
  sent.reserve(arrivals.size());
  // A short lead so the first due time is not already in the past.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  samples.last_sent = samples.last_completion = start;
  const auto at = [&](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };
  int next = 0;  // releases of this phase published so far
  for (const Arrival& arrival : arrivals) {
    while (release_ && next < releases &&
           static_cast<double>(next) * interval <= arrival.at) {
      wait_until(at(static_cast<double>(next) * interval));
      published_ = first_version + next++;
      publish(*cluster_,
              catalog_.releases[static_cast<std::size_t>(published_)]);
    }
    Sent s;
    s.id = next_request_++;
    s.cls = arrival.cls;
    s.at = arrival.at;
    s.due = at(arrival.at);
    wait_until(s.due);
    service::RunRequest request =
        make_request(catalog_, catalog_.classes[arrival.cls]);
    s.sent = Clock::now();
    {
      trace::Span span("service/cluster", "Cluster::submit", s.id);
      s.future = cluster_->submit(std::move(request));
    }
    sent.push_back(std::move(s));
  }
  // Results are collected after the last send, so the generator does
  // nothing else while it keeps the schedule.
  if (!sent.empty()) samples.last_sent = sent.back().sent;
  for (Sent& s : sent) complete_open(s, samples);
}

void ServeRun::complete_open(Sent& s, OpenSamples& samples) {
  const service::ClusterRunResult result = s.future.get();
  const double late = seconds_between(s.due, s.sent);
  const double latency = late + result.total_seconds;
  samples.at.push_back(s.at);
  samples.latency.push_back(latency);
  samples.late.push_back(late);
  samples.last_completion = std::max(
      samples.last_completion,
      s.sent + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(result.total_seconds)));
  trace::record("loadgen", "late", s.due, s.sent, 0, s.id, trace::Kind::Wait,
                false);
  record_spans(s, result);
  check(s.cls, result);

  const service::RunResult& r = result.result;
  if (!r.ok) return;
  samples.cluster_wait.push_back(result.total_seconds - r.total_seconds);
  samples.queue.push_back(r.queue_seconds);
  samples.run.push_back(r.run_seconds);
  samples.other.push_back(r.total_seconds - r.queue_seconds -
                          r.deploy_seconds - r.run_seconds);
  const bool source = catalog_.classes[s.cls].source;
  if (r.spec_cache_hit) {
    samples.deploy_hit.push_back(r.deploy_seconds);
  } else {
    (source ? samples.deploy_miss_src : samples.deploy_miss_ir)
        .push_back(r.deploy_seconds);
    (source ? samples.cold_src : samples.cold_ir).push_back(latency);
  }
}

double ServeRun::closed_loop(common::Rng& rng, double duration) {
  const int latest = release_ ? kVersions - 1 : 0;
  const auto send = [&](Sent& s) {
    s.id = next_request_++;
    s.cls = draw_class(rng, latest, 1.0);
    service::RunRequest request =
        make_request(catalog_, catalog_.classes[s.cls]);
    s.due = s.sent = Clock::now();
    trace::Span span("service/cluster", "Cluster::submit", s.id);
    s.future = cluster_->submit(std::move(request));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration));
  std::vector<Sent> window(kOutstanding);
  for (Sent& s : window) send(s);
  std::size_t outstanding = window.size();
  Clock::time_point last = start;
  std::vector<double> completed_at;  // seconds from the loop's start
  // Poll rather than block, so the generator's own wake-up latency stays
  // out of the measured throughput.
  while (outstanding > 0) {
    for (Sent& s : window) {
      if (!s.future.valid() ||
          s.future.wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        continue;
      }
      const service::ClusterRunResult result = s.future.get();
      last = Clock::now();
      completed_at.push_back(seconds_between(start, last));
      trace::record("service/cluster", "request (closed loop)", s.sent, last,
                    0, s.id, trace::Kind::Busy, false);
      check(s.cls, result);
      if (last < deadline) {
        send(s);
      } else {
        --outstanding;
      }
    }
  }
  // Median over half-second windows of the completion rate: robust to a
  // stall that hits one window.
  constexpr double kRateWindow = 0.5;
  std::vector<double> per_window(
      static_cast<std::size_t>(duration / kRateWindow), 0.0);
  for (const double t : completed_at) {
    const auto w = static_cast<std::size_t>(t / kRateWindow);
    if (w < per_window.size()) per_window[w] += 1.0 / kRateWindow;
  }
  return median(std::move(per_window));
}

void ServeRun::check(std::size_t c, const service::ClusterRunResult& served) {
  ++report_.attempted;
  const RequestClass& cls = catalog_.classes[c];
  const service::RunResult& result = served.result;
  if (!result.ok) {
    report_.fail(cls.name + ": " + result.error);
    return;
  }
  const auto it = references_.find({c, node_model(result.node_name)});
  if (it == references_.end()) {
    report_.fail(cls.name + " served on unexpected node " + result.node_name);
    return;
  }
  if (result.numerics_digest != it->second.digest) {
    report_.fail(cls.name + " on " + result.node_name +
                 ": numerics differ from the direct deploy+run");
  }
}

void ServeRun::record_spans(const Sent& s,
                            const service::ClusterRunResult& result) const {
  if (!trace::enabled()) return;
  const service::RunResult& r = result.result;
  const std::uint64_t request = s.id;
  const auto plus = [](Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  };
  const Clock::time_point end = plus(s.sent, result.total_seconds);
  const std::uint64_t root =
      trace::record("service/cluster", catalog_.classes[s.cls].name, s.sent,
                    end, 0, request, trace::Kind::Busy, true);
  // Stage layout: cluster WFQ wait, then the gateway's queue, deploy,
  // run, and the remainder (routing, digest, completion).
  const double cluster_wait =
      std::max(0.0, result.total_seconds - r.total_seconds);
  Clock::time_point t = s.sent;
  const auto stage = [&](const char* layer, const char* name, double seconds,
                         trace::Kind kind) {
    const Clock::time_point next = plus(t, std::max(0.0, seconds));
    trace::record(layer, name, t, next, root, request, kind, true);
    t = next;
  };
  stage("service/cluster", "cluster.wait", cluster_wait, trace::Kind::Wait);
  stage("service/gateway", "gateway.queue", r.queue_seconds, trace::Kind::Wait);
  stage(r.spec_cache_hit ? "service/spec_cache" : "service/deploy",
        r.spec_cache_hit ? "deploy (hit)" : "deploy (miss)", r.deploy_seconds,
        trace::Kind::Busy);
  stage("vm", "run", r.run_seconds, trace::Kind::Busy);
  stage("service/gateway", "gateway.other",
        r.total_seconds - r.queue_seconds - r.deploy_seconds - r.run_seconds,
        trace::Kind::Busy);
}

std::map<std::string, double> ServeRun::counters() const {
  std::map<std::string, double> out;
  const auto cluster_snap = cluster_->snapshot();
  out["cluster.stolen"] =
      static_cast<double>(cluster_snap.counter("cluster.stolen"));
  out["cluster.steal_skipped"] =
      static_cast<double>(cluster_snap.counter("cluster.steal_skipped"));
  for (std::size_t g = 0; g < cluster_->gateway_count(); ++g) {
    service::Gateway& gateway = cluster_->gateway(g);
    const auto snap = gateway.snapshot();
    for (const char* name :
         {"gateway.retries", "gateway.shed", "spec_cache.hits",
          "spec_cache.disk_hits", "spec_cache.misses", "tu_cache.hits",
          "tu_cache.disk_hits", "tu_cache.compiles", "artifact_store.writes",
          "artifact_store.disk_hits", "artifact_store.verify_failures",
          "distribution.lazy_fetches", "distribution.prewarm_fetches",
          "distribution.verify_rejects"}) {
      out[name] += static_cast<double>(snap.counter(name));
    }
    out["deploy_scheduler.lowerings"] +=
        static_cast<double>(gateway.scheduler().cache().lowerings());
    out["build_farm.whole_builds"] +=
        static_cast<double>(gateway.farm().cache().lowerings());
    out["build_farm.tu_compiles"] +=
        static_cast<double>(gateway.farm().tu_compiles());
    out["build_farm.tu_hits"] +=
        static_cast<double>(gateway.farm().tu_cache_hits());
  }
  if (service::DistributionFabric* fabric = cluster_->distribution_fabric()) {
    out["distribution.bytes_total"] =
        static_cast<double>(fabric->stats().bytes_total());
  }
  return out;
}

Report ServeRun::run() {
  std::string error;
  const bool catalog_ok = release_ ? make_release_catalog(catalog_, &error)
                                   : make_hot_catalog(catalog_, &error);
  if (!catalog_ok ||
      !compute_references(catalog_, golden_, references_, &error)) {
    report_.fail(error);
    return report_;
  }
  if (options_.write_golden) return report_;
  std::vector<std::size_t> hot_classes(catalog_.classes.size());
  std::iota(hot_classes.begin(), hot_classes.end(), 0);
  hot_bag_ = ShuffleBag<std::size_t>(std::move(hot_classes));

  // Set-up: bring the cluster up, publish, warm every class it will
  // serve. Repeated; the last cluster serves the timed phases.
  std::vector<double> setups;
  for (int i = 0; i < options_.setups(); ++i) {
    const Clock::time_point t0 = Clock::now();
    if (!setup_once(i, &error)) {
      report_.fail(error);
      return report_;
    }
    setups.push_back(seconds_since(t0));
  }
  report_.e2e["setup_s"] = median(setups);
  // Deterministic: each gateway specializes each warm class once per
  // (configuration, target) it meets.
  {
    std::uint64_t lowered = 0;
    for (std::size_t g = 0; g < cluster_->gateway_count(); ++g) {
      lowered += cluster_->gateway(g).scheduler().cache().lowerings() +
                 cluster_->gateway(g).farm().cache().lowerings();
    }
    report_.exact["setup.specializations"] = lowered;
  }

  const double open_seconds = options_.seconds * kOpenShare;
  const double closed_seconds = options_.seconds - open_seconds;
  const double rate = release_ ? 600.0 : 1000.0;
  const double interval = open_seconds / kReleases;  // serve_release
  common::Rng rng(options_.seed ^ (release_ ? 0x5e1ea5eULL : 0x407ULL));
  if (release_) {
    // Warm-up releases, served and checked but not timed.
    trace::Span span("setup", "warm-up releases");
    OpenSamples warmup;
    open_loop(open_schedule(rng, kWarmupReleases * interval, rate, 1,
                            kWarmupReleases),
              1, kWarmupReleases, interval, warmup);
  }
  const int first_timed = release_ ? 1 + kWarmupReleases : 0;
  const std::vector<Arrival> arrivals =
      open_schedule(rng, open_seconds, rate, first_timed, kReleases);
  report_.exact["open_loop.requests"] = arrivals.size();
  {
    std::map<std::string, std::uint64_t> per_class;
    for (const Arrival& a : arrivals) ++per_class[catalog_.classes[a.cls].name];
    common::Json classes = common::Json::object();
    for (const auto& [name, count] : per_class) classes[name] = count;
    report_.exact["open_loop.classes"] = std::move(classes);
  }

  const auto before = counters();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point wall0 = Clock::now();

  OpenSamples open;
  open_loop(arrivals, first_timed, release_ ? kReleases : 0, interval, open);
  sample_rss();
  if (release_) {
    // The closed loop measures warm throughput over every version's
    // classes, so the cold builds left over from the open loop come
    // first, and gossip settles so that every run starts it with the same
    // replicated stores.
    std::vector<std::size_t> all(catalog_.classes.size());
    std::iota(all.begin(), all.end(), 0);
    if (!warm(*cluster_, catalog_, all, &error)) report_.fail(error);
    cluster_->distribution_flush();
  }
  const double ops_per_s = closed_loop(rng, closed_seconds);
  sample_rss();

  const double busy_cores =
      (process_cpu_seconds() - cpu0) / seconds_since(wall0);
  auto after = counters();
  for (auto& [name, value] : after) {
    if (before.count(name)) value -= before.at(name);
  }
  if (release_) report_.exact["versions_published"] = published_;

  // End-to-end: the open loop's latency, the closed loop's throughput.
  report_.e2e["p50_ms"] = median(open.latency) * 1e3;
  const double window = release_ ? interval : kHotWindowSeconds;
  const auto windowed = [&](double q) {
    return windowed_quantile(open.latency, open.at, window, open_seconds, q) *
           1e3;
  };
  report_.e2e["p90_ms"] = windowed(0.90);
  report_.e2e["ops_per_s"] = ops_per_s;

  // Validity of the open loop: no growing backlog, a punctual generator.
  const double late_p99_ms = quantile(open.late, 0.99) * 1e3;
  const double backlog = seconds_between(open.last_sent, open.last_completion);
  if (backlog > 1.0) {
    report_.warnings.push_back("open loop fell behind: last completion " +
                               std::to_string(backlog) +
                               " s after the last send");
  }
  if (late_p99_ms >= 5.0) {
    report_.warnings.push_back("generator late p99 " +
                               std::to_string(late_p99_ms) + " ms >= 5 ms");
  }

  auto& L = report_.layer;
  L["tail.p99_ms"] = windowed(0.99);
  L["cluster.wait_ms.p50"] = median(open.cluster_wait) * 1e3;
  L["cluster.wait_ms.p99"] = quantile(open.cluster_wait, 0.99) * 1e3;
  L["gateway.queue_ms.p50"] = median(open.queue) * 1e3;
  L["gateway.queue_ms.p99"] = quantile(open.queue, 0.99) * 1e3;
  L["gateway.run_ms.p50"] = median(open.run) * 1e3;
  L["gateway.other_ms.p50"] = median(open.other) * 1e3;
  L["gateway.deploy_hit_ms.p50"] = median(open.deploy_hit) * 1e3;
  L["gateway.deploy_miss_ir_ms.p50"] = median(open.deploy_miss_ir) * 1e3;
  L["gateway.deploy_miss_src_ms.p50"] = median(open.deploy_miss_src) * 1e3;
  L["serve.cold_ir_ms"] = median(open.cold_ir) * 1e3;
  L["serve.cold_src_ms"] = median(open.cold_src) * 1e3;
  L["serve.cold_requests"] =
      static_cast<double>(open.cold_ir.size() + open.cold_src.size());
  L["loadgen.late_p99_ms"] = late_p99_ms;
  L["cpu_busy_cores"] = busy_cores;
  for (const char* name :
       {"cluster.stolen", "cluster.steal_skipped", "gateway.retries",
        "gateway.shed", "spec_cache.misses", "spec_cache.disk_hits",
        "deploy_scheduler.lowerings", "tu_cache.compiles",
        "build_farm.whole_builds", "build_farm.tu_compiles",
        "build_farm.tu_hits", "artifact_store.writes",
        "artifact_store.disk_hits", "artifact_store.verify_failures",
        "distribution.bytes_total", "distribution.lazy_fetches",
        "distribution.prewarm_fetches", "distribution.verify_rejects"}) {
    L[name] = after[name];
  }
  const double spec_lookups = after["spec_cache.hits"] +
                              after["spec_cache.disk_hits"] +
                              after["spec_cache.misses"];
  L["spec_cache.hit_ratio"] =
      spec_lookups > 0 ? after["spec_cache.hits"] / spec_lookups : 0.0;
  const double tu_lookups = after["tu_cache.hits"] +
                            after["tu_cache.disk_hits"] +
                            after["tu_cache.compiles"];
  L["tu_cache.hit_ratio"] =
      tu_lookups > 0 ? after["tu_cache.hits"] / tu_lookups : 0.0;

  // common/sha256: the per-request numerics digest, timed per class.
  if (options_.trace) {
    std::vector<double> per_class;
    for (auto& [key, ref] : references_) {
      if (key.second != "ault23") continue;
      std::vector<double> samples;
      for (int i = 0; i < 21; ++i) {
        trace::Span span("common/sha256", "numerics_digest");
        const Clock::time_point t0 = Clock::now();
        const std::string digest =
            service::numerics_digest(ref.run, ref.workload);
        samples.push_back(seconds_since(t0));
        if (digest != ref.digest) report_.fail("numerics_digest is not stable");
      }
      per_class.push_back(median(samples));
    }
    L["digest_us"] = median(per_class) * 1e6;
  }

  cluster_.reset();
  artifacts_.reset();
  return report_;
}

}  // namespace

Report run_serve_hot(const Options& options, Golden& golden) {
  return ServeRun(options, golden, /*release=*/false).run();
}

Report run_serve_release(const Options& options, Golden& golden) {
  return ServeRun(options, golden, /*release=*/true).run();
}

}  // namespace xaas::e2e
