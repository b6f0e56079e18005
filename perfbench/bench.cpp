// Benchmark program for the Algorithm-1 pipeline (see README.md beside this
// file for the workloads and the metric map).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir>
//
// Frames come from am::MachineSimulator before any timing starts. The
// pipeline is deployed through the public Strata facade; its sources are the
// benchmark's load generator, which releases layer k at its due time (open
// loop) or when fewer than `window` layers are in flight (closed loop), and
// stamps each tuple's stimulus with that time. Every delivered report is
// checked against a reference computed by calling the Algorithm-1 user
// functions directly on one thread. Program metrics are read from
// MetricsSnapshot() only after a run has finished.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
// untraced and once with every user function wrapped in steady_clock spans
// (plus the program's own sampled spans), and prints the per-layer metrics,
// the per-stage table and the tracing overhead. The last stdout line is the
// JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <stop_token>
#include <thread>
#include <tuple>
#include <vector>

#include "common/trace_context.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "strata/transport.hpp"
#include "strata/usecase.hpp"

namespace {

using namespace strata;  // NOLINT
using perfbench::Interval;
using perfbench::ReportKey;

/// The paper job is 23 mm tall at 40 um layers; a run that needs more layers
/// starts the next job id instead of printing past the top of the
/// specimens (IsolateSpecimen drops specimens that have topped out).
constexpr int kJobLayers = 575;
/// Reports later than the recoat budget count as failed operations.
constexpr double kRecoatBudgetMs = 3000.0;
constexpr int kCorrelateLayers = 20;
constexpr int kThresholdHistoryLayers = 3;
constexpr int kSetupSamples = 9;
/// Layers released in a run's first seconds warm the pipeline up (first
/// allocations, page faults, new files) and are checked but not timed; the
/// timed part of the run then lasts --seconds.
constexpr double kWarmupSeconds = 2.0;
/// Program span sampling in the traced run: one source batch in N.
constexpr std::uint32_t kTraceSampleEvery = 8;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilMs(double t_ms) {
  const auto target = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(t_ms)));
  std::this_thread::sleep_until(target);
}

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  int image_px;
  int cell_px;
  /// > 0: open loop at this many layers per second. 0: closed loop.
  double layers_per_s;
  /// Closed loop: layers in flight (released, not all reports delivered).
  int window;
  /// Frames generated up front; layers cycle through them.
  int distinct_frames;
  bool remote;
  bool durable;
};

constexpr Workload kWorkloads[] = {
    // name           px  cell rate win frames remote durable
    {"live_fine", 2000, 2, 1.5, 0, 32, false, false},
    {"replay_remote", 2000, 40, 0.0, 8, 16, true, false},
    {"durable_paced", 1000, 5, 30.0, 0, 32, false, true},
};

/// Closed loop: the most layers a run can release, 64 per second.
constexpr double kMaxReplayLayersPerS = 64;
/// Records the replay broker keeps per raw-data topic. Connector topics
/// otherwise keep every record, and peak RSS would grow with run length;
/// the subscribers read within `window` layers of the head.
constexpr std::size_t kReplayRetention = 64;

struct Placement {
  std::int64_t job;
  std::int64_t layer;
};

Placement Place(int index) {
  return {1 + index / kJobLayers, index % kJobLayers};
}

int IndexOf(std::int64_t job, std::int64_t layer) {
  return static_cast<int>((job - 1) * kJobLayers + layer);
}

// ---------------------------------------------------------------- inputs

struct Frame {
  Value image;  // shared am::ImageValue: tuples reference it, never copy it
  Payload params;
};

struct Inputs {
  am::BuildJobSpec job;
  double px_per_mm = 0;
  Timestamp period_us = 0;
  std::vector<Frame> frames;
  std::vector<double> frame_ms;  // generation time per frame
};

Inputs MakeInputs(const Workload& w, std::uint64_t seed, int frames) {
  Inputs in;
  am::MachineParams params;
  params.job = am::MakePaperJob(1, w.image_px);
  params.defects.seed = seed;
  params.ot.seed = seed * 7919 + 17;
  params.layers_limit = frames;
  am::MachineSimulator machine(params);
  in.job = machine.job();
  in.px_per_mm = in.job.plate.PxPerMm();
  in.period_us = machine.LayerPeriodMicros();
  for (;;) {
    const double t0 = NowMs();
    std::optional<am::LayerData> layer = machine.NextLayer();
    if (!layer.has_value()) break;
    in.frame_ms.push_back(NowMs() - t0);
    in.frames.push_back(Frame{am::MakeImageValue(std::move(layer->ot_image)),
                              std::move(layer->printing_params)});
  }
  return in;
}

const Frame& FrameFor(const Inputs& in, int index) {
  return in.frames[static_cast<std::size_t>(index) % in.frames.size()];
}

core::UseCaseParams UseCase(const Workload& w) {
  core::UseCaseParams params;
  params.machine_id = "m0";
  params.cell_px = w.cell_px;
  params.correlate_layers = kCorrelateLayers;
  return params;
}

// ------------------------------------------------------------- reference

struct Reference {
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, ReportKey>
      reports;
  std::vector<std::int64_t> cells_per_index;
};

ReportKey KeyFromReportTuple(const spe::Tuple& t) {
  return {t.job,
          t.layer,
          t.specimen,
          t.payload.Get("cluster_count").AsInt(),
          t.payload.Get("window_events").AsInt(),
          t.payload.Get("noise_events").AsInt()};
}

/// The expected reports for global indices [0, count): the user functions
/// called in pipeline order on this thread. Cells and events depend only on
/// the frame, so they are computed once per (frame, specimen).
Reference ComputeReference(const Workload& w, const Inputs& in, int count,
                           core::Strata* thresholds) {
  Reference ref;
  const core::PartitionFn isolate_specimen = core::IsolateSpecimen();
  const core::PartitionFn isolate_cell = core::IsolateCell(w.cell_px);
  const core::DetectFn label_cell = core::LabelCell(thresholds, "m0");
  const core::CorrelateFn correlate =
      core::DbscanCorrelator(UseCase(w), in.px_per_mm);

  struct Labeled {
    std::int64_t cells = 0;
    std::vector<spe::Tuple> events;
  };
  std::map<std::pair<std::size_t, std::int64_t>, Labeled> memo;
  std::map<std::pair<std::int64_t, std::int64_t>,
           std::map<std::int64_t, std::vector<spe::Tuple>>>
      history;

  for (int index = 0; index < count; ++index) {
    const Placement at = Place(index);
    const Frame& frame = FrameFor(in, index);
    spe::Tuple fused;
    fused.job = at.job;
    fused.layer = at.layer;
    fused.payload = frame.params;
    fused.payload.Set(core::kOtImageKey, frame.image);

    std::int64_t cells = 0;
    for (spe::Tuple& specimen : isolate_specimen(fused)) {
      specimen.job = at.job;
      specimen.layer = at.layer;
      auto& layers = history[{at.job, specimen.specimen}];
      if (core::IsLayerMarker(specimen)) {
        core::EventWindow window;
        window.job = at.job;
        window.specimen = specimen.specimen;
        window.layer = at.layer;
        for (const auto& [layer, events] : layers) {
          if (layer < at.layer - kCorrelateLayers || layer > at.layer) continue;
          window.events.insert(window.events.end(), events.begin(),
                               events.end());
        }
        for (spe::Tuple& out : correlate(window)) {
          out.job = at.job;
          out.layer = at.layer;
          out.specimen = specimen.specimen;
          const ReportKey key = KeyFromReportTuple(out);
          ref.reports[{key.job, key.layer, key.specimen}] = key;
        }
        std::erase_if(layers, [&](const auto& entry) {
          return entry.first < at.layer + 1 - kCorrelateLayers;
        });
        continue;
      }
      const auto memo_key = std::make_pair(
          static_cast<std::size_t>(index) % in.frames.size(),
          specimen.specimen);
      auto it = memo.find(memo_key);
      if (it == memo.end()) {
        Labeled labeled;
        for (spe::Tuple& cell : isolate_cell(specimen)) {
          ++labeled.cells;
          for (spe::Tuple& event : label_cell(cell)) {
            event.specimen = specimen.specimen;
            labeled.events.push_back(std::move(event));
          }
        }
        it = memo.emplace(memo_key, std::move(labeled)).first;
      }
      cells += it->second.cells;
      std::vector<spe::Tuple>& events = layers[at.layer];
      for (spe::Tuple event : it->second.events) {
        event.job = at.job;
        event.layer = at.layer;
        events.push_back(std::move(event));
      }
    }
    ref.cells_per_index.push_back(cells);
  }
  return ref;
}

// --------------------------------------------------------- load generator

/// Release schedule of a run's layers, shared by both sources and the
/// report callback. Open loop: layer k is due at t0 + k / rate. Closed loop:
/// layer k leaves once fewer than `window` layers are in flight, until the
/// run's time is up.
class Schedule {
 public:
  Schedule(const Workload& w, double seconds, std::vector<int> reports_per_layer)
      : rate_(w.layers_per_s),
        window_(w.window),
        seconds_(seconds),
        expected_(std::move(reports_per_layer)),
        delivered_(expected_.size(), 0),
        release_ms_(expected_.size(), 0.0),
        late_ms_(expected_.size(), 0.0) {}

  void Start(double t0_ms) {
    std::lock_guard lock(mu_);
    t0_ms_ = t0_ms;
    started_ = true;
    cv_.notify_all();
  }

  /// OT source: blocks until layer k may leave and returns its release
  /// time; nullopt once the run is over.
  std::optional<double> ReleaseOt(int k) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return started_; });
    double release = 0;
    if (k >= static_cast<int>(expected_.size())) {
      return Finish();
    }
    if (rate_ > 0) {
      release = t0_ms_ + k * 1000.0 / rate_;
      lock.unlock();
      SleepUntilMs(release);
      lock.lock();
    } else {
      // A lost report would stall the window forever, so a window that
      // makes no progress for 10 s releases anyway; the check then counts
      // the report as missing.
      cv_.wait_for(lock, std::chrono::seconds(10),
                   [&] { return k - completed_ < window_; });
      release = NowMs();
      if (release >= t0_ms_ + (kWarmupSeconds + seconds_) * 1000.0) {
        return Finish();
      }
    }
    const auto i = static_cast<std::size_t>(k);
    release_ms_[i] = release;
    late_ms_[i] = NowMs() - release;
    released_ = k + 1;
    cv_.notify_all();
    return release;
  }

  /// PP source: layer k leaves together with its OT frame.
  std::optional<double> ReleasePp(int k) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return released_ > k || finished_; });
    if (released_ <= k) return std::nullopt;
    return release_ms_[static_cast<std::size_t>(k)];
  }

  /// A report of layer k arrived; returns the layer's release time.
  double OnReport(int k) {
    std::lock_guard lock(mu_);
    if (k < 0 || k >= released_) return 0;
    const auto i = static_cast<std::size_t>(k);
    if (++delivered_[i] == expected_[i]) {
      ++completed_;
      cv_.notify_all();
    }
    return release_ms_[i];
  }

  [[nodiscard]] int released() const {
    std::lock_guard lock(mu_);
    return released_;
  }
  /// First layer released after the warm-up.
  [[nodiscard]] int first_timed() const {
    std::lock_guard lock(mu_);
    int k = 0;
    while (k < released_ &&
           release_ms_[static_cast<std::size_t>(k)] <
               t0_ms_ + kWarmupSeconds * 1000.0) {
      ++k;
    }
    return k;
  }
  [[nodiscard]] double release_ms(int k) const {
    std::lock_guard lock(mu_);
    return release_ms_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::vector<double> late_ms() const {
    std::lock_guard lock(mu_);
    return {late_ms_.begin(), late_ms_.begin() + released_};
  }

 private:
  std::optional<double> Finish() {
    finished_ = true;
    cv_.notify_all();
    return std::nullopt;
  }

  const double rate_;
  const int window_;
  const double seconds_;
  const std::vector<int> expected_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool finished_ = false;
  double t0_ms_ = 0;
  int released_ = 0;
  int completed_ = 0;
  std::vector<int> delivered_;
  std::vector<double> release_ms_;
  std::vector<double> late_ms_;
};

// ---------------------------------------------------------------- tracing

/// Spans the traced run records around the user functions, keyed by
/// (job, layer, specimen). Untraced runs pass the unwrapped functions.
class UserSpans {
 public:
  struct Call {
    double begin = 0;
    double end = 0;
  };
  struct LabelSum {
    double self_ms = 0;
    double first = 0;
    double last = 0;
    std::int64_t cells = 0;
    std::int64_t events = 0;
  };
  struct Dbscan {
    Call call;
    std::int64_t window_events = 0;
  };
  /// A user-function call made inside a sampled program span.
  struct Child {
    std::uint64_t span_id;
    Interval interval;  // microseconds, the program spans' unit
  };
  using Key = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

  void OtReturned(std::int64_t job, std::int64_t layer, double t) {
    std::lock_guard lock(mu);
    ot_return[{job, layer, -1}] = t;
  }

  core::PartitionFn WrapSpecimen(core::PartitionFn fn) {
    return [this, fn](const spe::Tuple& t) {
      const double begin = NowMs();
      std::vector<spe::Tuple> out = fn(t);
      const double end = NowMs();
      RecordChild(begin, end);
      if (!core::IsLayerMarker(t)) {
        std::lock_guard lock(mu);
        specimen[{t.job, t.layer, -1}] = {begin, end};
      }
      return out;
    };
  }

  core::PartitionFn WrapCell(core::PartitionFn fn) {
    return [this, fn](const spe::Tuple& t) {
      const double begin = NowMs();
      std::vector<spe::Tuple> out = fn(t);
      const double end = NowMs();
      RecordChild(begin, end);
      if (!core::IsLayerMarker(t)) {
        std::lock_guard lock(mu);
        cell[{t.job, t.layer, t.specimen}] = {begin, end};
      }
      return out;
    };
  }

  core::DetectFn WrapLabel(core::DetectFn fn) {
    return [this, fn](const spe::Tuple& t) {
      const double begin = NowMs();
      std::vector<spe::Tuple> out = fn(t);
      const double end = NowMs();
      RecordChild(begin, end);
      if (!core::IsLayerMarker(t)) {
        // One (layer, specimen) runs on one label worker, so the entry this
        // thread cached is written by this thread only.
        thread_local LabelSum* cached = nullptr;
        thread_local Key cached_key;
        const Key key{t.job, t.layer, t.specimen};
        if (cached == nullptr || cached_key != key) {
          std::lock_guard lock(mu);
          cached = &label[key];
          cached_key = key;
          if (cached->cells == 0) cached->first = begin;
        }
        cached->self_ms += end - begin;
        cached->last = end;
        cached->cells += 1;
        cached->events += static_cast<std::int64_t>(out.size());
      }
      return out;
    };
  }

  core::CorrelateFn WrapDbscan(core::CorrelateFn fn) {
    return [this, fn](const core::EventWindow& window) {
      const double begin = NowMs();
      std::vector<spe::Tuple> out = fn(window);
      const double end = NowMs();
      RecordChild(begin, end);
      std::lock_guard lock(mu);
      dbscan[{window.job, window.layer, window.specimen}] = {
          {begin, end}, static_cast<std::int64_t>(window.events.size())};
      return out;
    };
  }

  /// Children of program span `span_id` (all recorded on its thread).
  [[nodiscard]] std::map<std::uint64_t, std::vector<Interval>> ChildrenBySpan()
      const {
    std::lock_guard lock(mu);
    std::map<std::uint64_t, std::vector<Interval>> out;
    for (const auto& buffer : children_) {
      for (const auto& child : *buffer) {
        out[child.span_id].push_back(child.interval);
      }
    }
    return out;
  }

  mutable std::mutex mu;
  std::map<Key, double> ot_return;
  std::map<Key, Call> specimen;
  std::map<Key, Call> cell;
  std::map<Key, LabelSum> label;
  std::map<Key, Dbscan> dbscan;

 private:
  void RecordChild(double begin_ms, double end_ms) {
    const TraceContext& slot = ThreadTraceSlot();
    if (!slot.sampled()) return;
    thread_local std::vector<UserSpans::Child>* buffer = nullptr;
    thread_local const UserSpans* owner = nullptr;
    if (buffer == nullptr || owner != this) {
      std::lock_guard lock(mu);
      children_.push_back(std::make_unique<std::vector<UserSpans::Child>>());
      buffer = children_.back().get();
      owner = this;
    }
    buffer->push_back({slot.parent_span, {begin_ms * 1000.0, end_ms * 1000.0}});
  }

  std::vector<std::unique_ptr<std::vector<UserSpans::Child>>> children_;
};

// ------------------------------------------------------------------- runs

struct Observed {
  ReportKey key;
  double latency_ms;
  double delivered_ms;
};

struct RunResult {
  double setup_s = 0;
  int layers = 0;       // layers released
  int first_timed = 0;  // first layer released after the warm-up
  std::vector<Observed> reports;
  double first_release_ms = 0;   // of the first timed layer
  double last_delivery_ms = 0;   // of the timed layers' reports
  std::vector<double> late_ms;
  std::vector<double> epoch_done_ms;
  std::vector<double> epoch_duration_us;
  obs::MetricsSnapshot snapshot;
  double server_produce_mean_us = 0;
  double server_produce_p99_us = 0;
  double server_bytes_in = 0;
  double server_bytes_out = 0;
  double server_produced = 0;
  std::vector<obs::Span> spans;
};

/// One deployment of the pipeline: optional loopback broker server and the
/// Strata instance. Members are destroyed in reverse order, so Strata shuts
/// down before the server it talks to.
struct Deployment {
  obs::MetricsRegistry server_registry;
  std::unique_ptr<ps::Broker> server_broker;
  std::unique_ptr<net::BrokerServer> server;
  std::unique_ptr<core::Strata> strata;
};

std::string DurableKey(const spe::Tuple& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%06lld/%06lld/%03lld",
                static_cast<long long>(t.job), static_cast<long long>(t.layer),
                static_cast<long long>(t.specimen));
  return buf;
}

/// Reports each layer yields: one per specimen IsolateSpecimen keeps.
std::vector<int> ReportsPerLayer(const Inputs& in, int count) {
  const core::PartitionFn isolate_specimen = core::IsolateSpecimen();
  std::vector<int> out;
  for (int index = 0; index < count; ++index) {
    spe::Tuple t;
    t.layer = Place(index).layer;
    t.payload = FrameFor(in, index).params;
    t.payload.Set(core::kOtImageKey, FrameFor(in, index).image);
    const std::vector<spe::Tuple> specimens = isolate_specimen(t);
    out.push_back(static_cast<int>(
        std::count_if(specimens.begin(), specimens.end(),
                      [](const spe::Tuple& s) { return core::IsLayerMarker(s); })));
  }
  return out;
}

class Runner {
 public:
  Runner(const Workload& w, const Inputs& in, double seconds,
         std::vector<int> reports_per_layer, std::filesystem::path work_dir)
      : w_(w),
        in_(in),
        seconds_(seconds),
        reports_per_layer_(std::move(reports_per_layer)),
        work_dir_(std::move(work_dir)) {}

  /// Sets up a deployment, runs the load against it (none when `measure`
  /// is false, which times set-up alone) and tears it down.
  RunResult Run(bool measure, UserSpans* spans) {
    RunResult result;
    const std::filesystem::path dir =
        work_dir_ / ("d" + std::to_string(next_dir_++));
    std::filesystem::create_directories(dir);

    Schedule schedule(w_, seconds_,
                      measure ? reports_per_layer_ : std::vector<int>{});
    std::mutex report_mu;
    auto on_report = [&](std::int64_t job, std::int64_t layer,
                         std::int64_t specimen, std::int64_t clusters,
                         std::int64_t window_events, std::int64_t noise) {
      const double now = NowMs();
      const double release = schedule.OnReport(IndexOf(job, layer));
      std::lock_guard lock(report_mu);
      result.reports.push_back(
          {{job, layer, specimen, clusters, window_events, noise},
           now - release,
           now});
    };

    {
      Deployment d;
      const double setup_begin = NowMs();
      core::StrataOptions options;
      options.data_dir = dir;
      if (w_.remote) {
        d.server_broker = std::make_unique<ps::Broker>();
        d.server_broker->BindMetrics(&d.server_registry);
        ps::TopicConfig raw;
        raw.retention_records = kReplayRetention;
        d.server_broker->CreateTopic("raw.ot.m0", raw).OrDie();
        d.server_broker->CreateTopic("raw.pp.m0", raw).OrDie();
        net::BrokerServerOptions server_options;
        server_options.metrics = &d.server_registry;
        d.server = std::make_unique<net::BrokerServer>(d.server_broker.get(),
                                                       server_options);
        d.server->Start().OrDie();
        net::RemoteOptions remote;
        remote.host = "127.0.0.1";
        remote.port = d.server->port();
        options.remote_broker = remote;
      }
      if (w_.durable) {
        options.persistent_connectors = true;
        options.checkpoint_interval_ms = 250;
      }
      if (spans != nullptr) options.trace_sample_every = kTraceSampleEvery;
      d.strata = std::make_unique<core::Strata>(options);
      core::Strata* strata = d.strata.get();
      core::ComputeAndStoreThresholds(strata, "m0", in_.job,
                                      kThresholdHistoryLayers, w_.cell_px)
          .OrDie();
      Build(strata, &schedule, spans, on_report);
      strata->Deploy();
      result.setup_s = (NowMs() - setup_begin) / 1000.0;

      // Checkpoint epochs complete on the program's threads; sample the
      // coordinator's counters to time them.
      std::jthread poller;
      if (w_.durable && measure) {
        poller = std::jthread([&](const std::stop_token& stop) {
          std::uint64_t seen = 0;
          while (!stop.stop_requested()) {
            const spe::Checkpointer::Stats stats =
                strata->query().checkpointer()->stats();
            if (stats.epochs_completed != seen) {
              seen = stats.epochs_completed;
              result.epoch_done_ms.push_back(NowMs());
              result.epoch_duration_us.push_back(
                  static_cast<double>(stats.last_duration_us));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
      }

      if (spans != nullptr) obs::Tracer::Instance().Clear();
      schedule.Start(NowMs() + 20.0);
      strata->WaitForCompletion();
      poller = {};  // stops and joins the sampler

      result.layers = schedule.released();
      result.first_timed = schedule.first_timed();
      if (result.first_timed < result.layers) {
        result.first_release_ms = schedule.release_ms(result.first_timed);
        result.late_ms = schedule.late_ms();
      }
      for (const Observed& o : result.reports) {
        if (IndexOf(o.key.job, o.key.layer) < result.first_timed) continue;
        result.last_delivery_ms = std::max(result.last_delivery_ms,
                                           o.delivered_ms);
      }
      result.snapshot = strata->MetricsSnapshot();
      if (spans != nullptr) {
        result.spans = obs::Tracer::Instance().CollectSpans();
        obs::Tracer::Instance().Configure(0);
      }
      if (w_.durable) result.reports = ReadDurableReports(strata, result);
      if (w_.remote) ReadServerMetrics(d, &result);
    }
    std::filesystem::remove_all(dir);
    return result;
  }

 private:
  template <typename OnReport>
  void Build(core::Strata* strata, Schedule* schedule, UserSpans* spans,
             OnReport& on_report) {
    const Inputs* in = &in_;
    // Both sources stamp the stimulus with the layer's release time, so the
    // program's own sink latency also runs from when the layer was due.
    auto make_tuple = [in](int k, double release) {
      const Placement at = Place(k);
      spe::Tuple t;
      t.job = at.job;
      t.layer = at.layer;
      t.event_time = static_cast<Timestamp>(k + 1) * in->period_us;
      t.stimulus = static_cast<Timestamp>(release * 1000.0);
      return t;
    };
    auto pp_next = std::make_shared<int>(0);
    auto pp = strata->AddSource(
        "pp.m0", [=]() -> std::optional<spe::Tuple> {
          const int k = *pp_next;
          const std::optional<double> release = schedule->ReleasePp(k);
          if (!release.has_value()) return std::nullopt;
          ++*pp_next;
          spe::Tuple t = make_tuple(k, *release);
          t.payload = FrameFor(*in, k).params;
          return t;
        });
    auto ot_next = std::make_shared<int>(0);
    auto ot = strata->AddSource(
        "ot.m0", [=]() -> std::optional<spe::Tuple> {
          const int k = *ot_next;
          const std::optional<double> release = schedule->ReleaseOt(k);
          if (!release.has_value()) return std::nullopt;
          ++*ot_next;
          spe::Tuple t = make_tuple(k, *release);
          t.payload.Set(core::kOtImageKey, FrameFor(*in, k).image);
          if (spans != nullptr) spans->OtReturned(t.job, t.layer, NowMs());
          return t;
        });

    const core::UseCaseParams params = UseCase(w_);
    if (spans == nullptr && !w_.durable) {
      core::BuildThermalAnalysis(
          strata, pp, ot, in_.px_per_mm, params,
          [&on_report](const core::ClusterReport& r) {
            on_report(r.job, r.layer, r.specimen,
                      static_cast<std::int64_t>(r.clusters.size()),
                      static_cast<std::int64_t>(r.window_events),
                      static_cast<std::int64_t>(r.noise_events));
          });
      return;
    }

    // The same plan as BuildThermalAnalysis, with the user functions
    // wrapped (traced run) and/or a durable sink.
    core::PartitionFn specimen_fn = core::IsolateSpecimen();
    core::PartitionFn cell_fn = core::IsolateCell(params.cell_px);
    core::DetectFn label_fn = core::LabelCell(strata, params.machine_id);
    core::CorrelateFn dbscan_fn =
        core::DbscanCorrelator(params, in_.px_per_mm);
    if (w_.durable) {
      // The durable sink stores transport-encoded tuples, which carry
      // scalars only: keep the report's counts, drop the opaque summary.
      dbscan_fn = [inner = std::move(dbscan_fn)](const core::EventWindow& w) {
        std::vector<spe::Tuple> out = inner(w);
        for (spe::Tuple& t : out) t.payload.Erase("report");
        return out;
      };
    }
    if (spans != nullptr) {
      specimen_fn = spans->WrapSpecimen(std::move(specimen_fn));
      cell_fn = spans->WrapCell(std::move(cell_fn));
      label_fn = spans->WrapLabel(std::move(label_fn));
      dbscan_fn = spans->WrapDbscan(std::move(dbscan_fn));
    }
    auto fused = strata->Fuse("fuse.m0", ot, pp);
    auto specimens = strata->Partition("spec.m0", fused, specimen_fn);
    auto cells = strata->Partition("cell.m0", specimens, cell_fn,
                                   params.partition_parallelism);
    auto events = strata->DetectEvent("label.m0", cells, label_fn,
                                      params.detect_parallelism);
    auto reports = strata->CorrelateEvents("cluster.m0", events,
                                           params.correlate_layers, dbscan_fn);
    if (w_.durable) {
      // The key function runs as the sink takes the report, just before
      // its write-if-absent put: that is the delivery time.
      strata->DeliverDurable("expert.m0", reports, "reports/",
                             [&on_report](const spe::Tuple& t) {
                               const ReportKey k = KeyFromReportTuple(t);
                               on_report(k.job, k.layer, k.specimen,
                                         k.cluster_count, k.window_events,
                                         k.noise_events);
                               return DurableKey(t);
                             });
    } else {
      strata->Deliver("expert.m0", reports, [&on_report](const spe::Tuple& t) {
        const ReportKey k = KeyFromReportTuple(t);
        on_report(k.job, k.layer, k.specimen, k.cluster_count,
                  k.window_events, k.noise_events);
      });
    }
  }

  /// The durable workload's output is what the store holds: replace the
  /// report contents seen at the sink by the stored ones, keeping each
  /// delivery's latency (a report missing from the store stays missing).
  static std::vector<Observed> ReadDurableReports(core::Strata* strata,
                                                  const RunResult& result) {
    std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, ReportKey>
        stored;
    auto entries = strata->GetByPrefix("reports/");
    entries.status().OrDie();
    for (const auto& [key, value] : *entries) {
      auto tuple = core::DecodeTuple(value);
      tuple.status().OrDie();
      const ReportKey k = KeyFromReportTuple(*tuple);
      stored[{k.job, k.layer, k.specimen}] = k;
    }
    std::vector<Observed> out;
    for (Observed o : result.reports) {
      const auto it = stored.find({o.key.job, o.key.layer, o.key.specimen});
      if (it == stored.end()) continue;
      o.key = it->second;
      out.push_back(o);
    }
    return out;
  }

  static void ReadServerMetrics(Deployment& d, RunResult* result) {
    const Histogram produce =
        d.server_registry
            .GetHistogram("net.server.request_latency_us", {{"api", "produce"}})
            ->Snapshot();
    // The median of this integer-microsecond histogram sits in its first
    // buckets (most produces are small event batches); the mean does not.
    result->server_produce_mean_us = produce.mean();
    result->server_produce_p99_us = static_cast<double>(produce.Quantile(0.99));
    const obs::MetricsSnapshot snap = d.server_registry.Snapshot();
    result->server_bytes_in = snap.Value("net.server.bytes_in").value_or(0);
    result->server_bytes_out = snap.Value("net.server.bytes_out").value_or(0);
    result->server_produced = snap.Sum("pubsub.topic.produced", "topic", "");
  }

  const Workload& w_;
  const Inputs& in_;
  const double seconds_;
  const std::vector<int> reports_per_layer_;
  const std::filesystem::path work_dir_;
  int next_dir_ = 0;
};

// ----------------------------------------------------------- measurement

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}


struct Check {
  std::int64_t expected = 0;
  std::int64_t missing = 0;
  std::int64_t duplicated = 0;
  std::int64_t mismatched = 0;
  std::int64_t late = 0;
  std::uint64_t digest = 0;
  std::uint64_t reference_digest = 0;

  [[nodiscard]] bool correct() const {
    return missing == 0 && duplicated == 0 && mismatched == 0 &&
           digest == reference_digest;
  }
  [[nodiscard]] std::int64_t failed() const {
    return missing + duplicated + mismatched + late;
  }
};

struct Measurement {
  std::vector<double> setup_s;  // set-up-only deployments, then the measured
  RunResult run;
  Check check;
};

Check CheckReports(const Reference& ref, int layers,
                   const std::vector<Observed>& reports) {
  Check check;
  std::vector<ReportKey> expected;
  for (const auto& [key, report] : ref.reports) {
    if (IndexOf(report.job, report.layer) < layers) expected.push_back(report);
  }
  check.expected = static_cast<std::int64_t>(expected.size());
  check.reference_digest = perfbench::ReportDigest(expected);

  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>, int> seen;
  std::vector<ReportKey> delivered;
  std::int64_t matched = 0;
  for (const Observed& o : reports) {
    delivered.push_back(o.key);
    if (++seen[{o.key.job, o.key.layer, o.key.specimen}] > 1) {
      ++check.duplicated;
      continue;
    }
    const auto it = ref.reports.find({o.key.job, o.key.layer, o.key.specimen});
    if (it == ref.reports.end() || IndexOf(o.key.job, o.key.layer) >= layers ||
        !(it->second == o.key)) {
      ++check.mismatched;
      continue;
    }
    ++matched;
    if (o.latency_ms > kRecoatBudgetMs) ++check.late;
  }
  check.missing = check.expected - matched;
  check.digest = perfbench::ReportDigest(delivered);
  return check;
}

Measurement Measure(Runner* runner, int setup_only, UserSpans* spans) {
  Measurement m;
  for (int i = 0; i < setup_only; ++i) {
    m.setup_s.push_back(runner->Run(false, nullptr).setup_s);
  }
  m.run = runner->Run(true, spans);
  m.setup_s.push_back(m.run.setup_s);
  return m;
}

/// Reports of the layers released after the warm-up.
std::vector<Observed> TimedReports(const RunResult& run) {
  std::vector<Observed> out;
  for (const Observed& o : run.reports) {
    if (IndexOf(o.key.job, o.key.layer) >= run.first_timed) out.push_back(o);
  }
  return out;
}

std::vector<double> Latencies(const Measurement& m) {
  std::vector<double> out;
  for (const Observed& o : TimedReports(m.run)) out.push_back(o.latency_ms);
  return out;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintCheck(const char* label, const Check& c) {
  std::printf(
      "check[%s]: expected=%lld missing=%lld duplicated=%lld mismatched=%lld "
      "late=%lld digest=%016llx reference=%016llx -> %s\n",
      label, static_cast<long long>(c.expected),
      static_cast<long long>(c.missing), static_cast<long long>(c.duplicated),
      static_cast<long long>(c.mismatched), static_cast<long long>(c.late),
      static_cast<unsigned long long>(c.digest),
      static_cast<unsigned long long>(c.reference_digest),
      c.correct() ? "ok" : "MISMATCH");
}

void PrintResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct EndToEnd {
  double p50_ms = 0;
  double tail_ms = 0;
  int tail_percentile = 0;
  double kcells_per_s = 0;
};

EndToEnd Summarize(const Measurement& m, const Reference& ref) {
  EndToEnd e;
  const std::vector<double> latencies = Latencies(m);
  e.p50_ms = perfbench::Median(latencies);
  e.tail_percentile = perfbench::TailPercentile(latencies.size());
  e.tail_ms = perfbench::Percentile(latencies, e.tail_percentile);
  std::int64_t cells = 0;
  for (int k = m.run.first_timed; k < m.run.layers; ++k) {
    cells += ref.cells_per_index[static_cast<std::size_t>(k)];
  }
  // Cells per millisecond are thousands of cells per second.
  e.kcells_per_s = static_cast<double>(cells) /
                   (m.run.last_delivery_ms - m.run.first_release_ms);
  return e;
}

// ---------------------------------------------------------- traced run

struct StageRow {
  std::uint64_t spans = 0;
  double exec_us = 0;
  double self_us = 0;
};

/// Per-report decomposition of latency into the self times of the user
/// functions on its path, the connector hop, and queue wait.
struct Decomposition {
  std::vector<double> isolate_specimen_ms, isolate_cell_ms, label_cell_ms,
      dbscan_ms, window_events, hop_ms, queue_wait_ms;
  std::int64_t cells = 0;
  std::int64_t events = 0;
  std::int64_t reconcile_failures = 0;
  std::int64_t decomposed = 0;
};

/// A report's children must lie inside [release, delivery]: their union
/// plus queue wait then equals the latency. Children reaching outside it by
/// more than this are counted as reconciliation failures.
constexpr double kReconcileToleranceMs = 0.05;

Decomposition Decompose(const Measurement& m, const UserSpans& spans) {
  Decomposition d;
  std::lock_guard lock(spans.mu);
  for (const auto& [key, label] : spans.label) {
    d.cells += label.cells;
    d.events += label.events;
  }
  for (const auto& [key, ot_return] : spans.ot_return) {
    const auto spec = spans.specimen.find(key);
    if (spec == spans.specimen.end() ||
        IndexOf(std::get<0>(key), std::get<1>(key)) < m.run.first_timed) {
      continue;
    }
    d.hop_ms.push_back(spec->second.begin - ot_return);
  }
  for (const Observed& o : TimedReports(m.run)) {
    const UserSpans::Key layer_key{o.key.job, o.key.layer, -1};
    const UserSpans::Key report_key{o.key.job, o.key.layer, o.key.specimen};
    const auto ot = spans.ot_return.find(layer_key);
    const auto spec = spans.specimen.find(layer_key);
    const auto cell = spans.cell.find(report_key);
    const auto label = spans.label.find(report_key);
    const auto db = spans.dbscan.find(report_key);
    if (ot == spans.ot_return.end() || spec == spans.specimen.end() ||
        cell == spans.cell.end() || label == spans.label.end() ||
        db == spans.dbscan.end()) {
      continue;
    }
    ++d.decomposed;
    const Interval root{o.delivered_ms - o.latency_ms, o.delivered_ms};
    // Label calls of one report run back to back on one worker, after its
    // isolateCell call returned and before its DBSCAN call: they add their
    // summed time, and the other children form a union.
    const std::vector<Interval> children = {
        {ot->second, spec->second.begin},
        {spec->second.begin, spec->second.end},
        {cell->second.begin, cell->second.end},
        {db->second.call.begin, db->second.call.end}};
    double outside = 0;
    for (const Interval& c : children) {
      outside += std::max(0.0, root.begin - c.begin) +
                 std::max(0.0, c.end - root.end);
    }
    const bool label_off_path =
        label->second.first < cell->second.end - kReconcileToleranceMs ||
        label->second.last > db->second.call.begin + kReconcileToleranceMs;
    const double covered = perfbench::CoveredLength(root, children) +
                           label->second.self_ms;
    const double queue_wait = (root.end - root.begin) - covered;
    if (outside > kReconcileToleranceMs || label_off_path ||
        queue_wait < -kReconcileToleranceMs) {
      ++d.reconcile_failures;
    }
    d.isolate_specimen_ms.push_back(spec->second.end - spec->second.begin);
    d.isolate_cell_ms.push_back(cell->second.end - cell->second.begin);
    d.label_cell_ms.push_back(label->second.self_ms);
    d.dbscan_ms.push_back(db->second.call.end - db->second.call.begin);
    d.window_events.push_back(static_cast<double>(db->second.window_events));
    d.queue_wait_ms.push_back(queue_wait);
  }
  return d;
}

/// Program spans by stage: execute time, the part spent in the user
/// functions and nested program spans (the union of its children), and the
/// operator's own time. Source spans time the whole source call, including
/// idle waits for input, so they never count as execute time.
std::map<std::string, StageRow> StageTable(const std::vector<obs::Span>& spans,
                                           const UserSpans& user) {
  const std::map<std::uint64_t, std::vector<Interval>> user_children =
      user.ChildrenBySpan();
  std::map<std::uint64_t, std::vector<const obs::Span*>> nested;
  std::map<std::uint64_t, const obs::Span*> by_id;
  for (const obs::Span& s : spans) by_id[s.span_id] = &s;
  for (const obs::Span& s : spans) {
    const auto parent = by_id.find(s.parent_span);
    if (parent != by_id.end() && parent->second->tid == s.tid) {
      nested[s.parent_span].push_back(&s);
    }
  }
  std::map<std::string, StageRow> table;
  for (const obs::Span& s : spans) {
    if (std::string_view(s.category) == "spe.source") continue;
    const Interval extent{static_cast<double>(s.start_us),
                        static_cast<double>(s.start_us + s.dur_us)};
    std::vector<Interval> children;
    if (const auto it = user_children.find(s.span_id);
        it != user_children.end()) {
      children = it->second;
    }
    if (const auto it = nested.find(s.span_id); it != nested.end()) {
      for (const obs::Span* c : it->second) {
        children.push_back({static_cast<double>(c->start_us),
                            static_cast<double>(c->start_us + c->dur_us)});
      }
    }
    StageRow& row = table[std::string(s.category) + " " + s.name];
    row.spans += 1;
    row.exec_us += extent.end - extent.begin;
    row.self_us += perfbench::SelfTime(extent, children);
  }
  return table;
}

double MedianOr(const std::vector<double>& values, double fallback) {
  return values.empty() ? fallback : perfbench::Median(values);
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::filesystem::path work_dir;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0 ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

Reference MakeReference(const Workload& w, const Inputs& in, int layers,
                        const std::filesystem::path& dir) {
  Reference ref;
  {
    core::StrataOptions options;
    options.data_dir = dir;
    core::Strata thresholds(options);
    core::ComputeAndStoreThresholds(&thresholds, "m0", in.job,
                                    kThresholdHistoryLayers, w.cell_px)
        .OrDie();
    ref = ComputeReference(w, in, layers, &thresholds);
  }
  std::filesystem::remove_all(dir);
  return ref;
}

int RunMain(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.work_dir);
  const bool paced = w->layers_per_s > 0;
  char loop[64];
  if (paced) {
    std::snprintf(loop, sizeof(loop), "open loop at %g layers/s",
                  w->layers_per_s);
  } else {
    std::snprintf(loop, sizeof(loop), "closed loop, %d layers in flight",
                  w->window);
  }
  std::printf("workload %s seed %llu: %dx%d px frames, %d px cells, %s, "
              "%g s\n",
              w->name, static_cast<unsigned long long>(args.seed), w->image_px,
              w->image_px, w->cell_px, loop, args.seconds);
  std::fflush(stdout);

  const int max_layers = static_cast<int>(
      std::ceil((kWarmupSeconds + args.seconds) *
                (paced ? w->layers_per_s : kMaxReplayLayersPerS)));
  const Inputs inputs =
      MakeInputs(*w, args.seed, std::min(max_layers, w->distinct_frames));
  Runner runner(*w, inputs, args.seconds, ReportsPerLayer(inputs, max_layers),
                args.work_dir);

  if (args.trace == 0) {
    Measurement m = Measure(&runner, kSetupSamples - 1, nullptr);
    const double rss_mb = PeakRssMb();
    const Reference ref =
        MakeReference(*w, inputs, m.run.layers, args.work_dir / "reference");
    m.check = CheckReports(ref, m.run.layers, m.run.reports);
    PrintCheck("untraced", m.check);
    const EndToEnd e = Summarize(m, ref);
    const auto q = perfbench::Quartiles(Latencies(m));
    std::printf("%zu reports over %d layers, %d of them warm-up; timed "
                "latency quartiles %.2f / %.2f / %.2f ms over %zu reports; "
                "p%d %.2f ms (a per-layer metric of the traced run)\n",
                m.run.reports.size(), m.run.layers, m.run.first_timed, q[0],
                q[1], q[2], Latencies(m).size(), e.tail_percentile, e.tail_ms);
    const std::vector<Metric> metrics = {
        {"report_latency_p50_ms", e.p50_ms, "ms"},
        {"kcells_per_s", e.kcells_per_s, "kcells/s"},
        {"setup_s", perfbench::Median(m.setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    PrintTable("end-to-end:", metrics);
    PrintResult(m.check.correct(), m.check.expected, m.check.failed(),
                metrics);
    return m.check.correct() ? 0 : 1;
  }

  // Traced run: the untraced measurement first, as the overhead baseline.
  Measurement plain = Measure(&runner, 0, nullptr);
  UserSpans spans;
  Measurement traced = Measure(&runner, 0, &spans);
  const Reference ref =
      MakeReference(*w, inputs, std::max(plain.run.layers, traced.run.layers),
                    args.work_dir / "reference");
  plain.check = CheckReports(ref, plain.run.layers, plain.run.reports);
  traced.check = CheckReports(ref, traced.run.layers, traced.run.reports);
  PrintCheck("untraced", plain.check);
  PrintCheck("traced", traced.check);

  const EndToEnd e_plain = Summarize(plain, ref);
  const EndToEnd e_traced = Summarize(traced, ref);
  const double overhead_pct =
      paced ? 100.0 * (e_traced.p50_ms - e_plain.p50_ms) / e_plain.p50_ms
            : 100.0 * (e_plain.kcells_per_s - e_traced.kcells_per_s) /
                  e_plain.kcells_per_s;
  std::printf("tracing overhead: %s %.3f -> %.3f (%+.2f%%)\n",
              paced ? "report_latency_p50_ms" : "kcells_per_s",
              paced ? e_plain.p50_ms : e_plain.kcells_per_s,
              paced ? e_traced.p50_ms : e_traced.kcells_per_s, overhead_pct);

  const Decomposition d = Decompose(traced, spans);
  std::printf("reconciliation: %lld of %zu timed reports decomposed; %lld "
              "outside the %.2f ms tolerance\n",
              static_cast<long long>(d.decomposed),
              TimedReports(traced.run).size(),
              static_cast<long long>(d.reconcile_failures),
              kReconcileToleranceMs);

  const RunResult& r = traced.run;
  std::vector<double> epoch_gaps;
  for (std::size_t i = 1; i < r.epoch_done_ms.size(); ++i) {
    epoch_gaps.push_back(r.epoch_done_ms[i] - r.epoch_done_ms[i - 1]);
  }
  const obs::MetricsSnapshot& snap = r.snapshot;

  std::printf("program spans by stage (sampled 1/%u; source spans include "
              "idle waits and are left out):\n",
              kTraceSampleEvery);
  std::printf("  %-44s %7s %12s %12s %12s\n", "stage", "spans", "exec_ms",
              "children_ms", "self_ms");
  for (const auto& [stage, row] : StageTable(r.spans, spans)) {
    std::printf("  %-44s %7llu %12.3f %12.3f %12.3f\n", stage.c_str(),
                static_cast<unsigned long long>(row.spans), row.exec_us / 1e3,
                (row.exec_us - row.self_us) / 1e3, row.self_us / 1e3);
  }
  std::printf("per report (median): isolateSpecimen %.3f ms, isolateCell "
              "%.3f ms, labelCell %.3f ms, DBSCAN %.3f ms, hop %.3f ms, "
              "queue wait %.3f ms, latency %.3f ms\n",
              MedianOr(d.isolate_specimen_ms, 0), MedianOr(d.isolate_cell_ms, 0),
              MedianOr(d.label_cell_ms, 0), MedianOr(d.dbscan_ms, 0),
              MedianOr(d.hop_ms, 0), MedianOr(d.queue_wait_ms, 0),
              e_traced.p50_ms);

  const std::vector<Metric> metrics = {
      {"report_latency_tail_ms", e_plain.tail_ms, "ms"},
      {"strata.isolate_cell.self_ms", MedianOr(d.isolate_cell_ms, 0), "ms"},
      {"strata.label_cell.self_ms", MedianOr(d.label_cell_ms, 0), "ms"},
      {"strata.label_cell.event_ratio",
       d.cells > 0 ? static_cast<double>(d.events) / d.cells : 0,
       "events/cell"},
      {"spe.queue_wait_ms", MedianOr(d.queue_wait_ms, 0), "ms"},
      {"spe.blocked_ms", snap.Sum("spe.stream.blocked_us", "stream", "") / 1e3,
       "ms"},
      {"clustering.dbscan.self_ms", MedianOr(d.dbscan_ms, 0), "ms"},
      {"clustering.dbscan.window_events", MedianOr(d.window_events, 0),
       "events"},
      {"strata.connector_hop_ms", MedianOr(d.hop_ms, 0), "ms"},
      {"net.server.produce_latency_mean_us", r.server_produce_mean_us, "us"},
      {"net.server.produce_latency_p99_us", r.server_produce_p99_us, "us"},
      {"net.server.bytes_in", r.server_bytes_in, "bytes"},
      {"net.server.bytes_out", r.server_bytes_out, "bytes"},
      {"pubsub.topic.produced",
       w->remote ? r.server_produced
                 : snap.Sum("pubsub.topic.produced", "topic", ""),
       "records"},
      {"spe.checkpoint.duration_p50_us", MedianOr(r.epoch_duration_us, 0),
       "us"},
      {"spe.checkpoint.epoch_interval_ms", MedianOr(epoch_gaps, 0), "ms"},
      {"spe.checkpoint.failures", snap.Value("spe.checkpoint.failures").value_or(0),
       "count"},
      {"spe.checkpoint.bytes", snap.Value("spe.checkpoint.bytes").value_or(0),
       "bytes"},
      {"kv.wal_syncs", snap.Value("kv.wal_syncs").value_or(0), "count"},
      {"kv.puts", snap.Value("kv.puts").value_or(0), "count"},
      {"kv.flushes", snap.Value("kv.flushes").value_or(0), "count"},
      {"am.ot_frame_ms", perfbench::Median(inputs.frame_ms), "ms"},
      {"load.gen_late_ms", MedianOr(r.late_ms, 0), "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.reconcile_failures", static_cast<double>(d.reconcile_failures),
       "count"},
  };
  PrintTable("per-layer:", metrics);
  const bool correct = plain.check.correct() && traced.check.correct();
  PrintResult(correct, plain.check.expected + traced.check.expected,
              plain.check.failed() + traced.check.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir>\n",
                 argv[0]);
    return 2;
  }
  try {
    return RunMain(*args);
  } catch (const std::exception& e) {
    // E.g. too few timed reports for a percentile: no result to print.
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
