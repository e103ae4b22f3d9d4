#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <type_traits>
#include <utility>

#include "lattice/lattice.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/executor.h"
#include "util/text_table.h"

namespace snakes {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// Hand-off from SubmitInstrumented to the request the task body starts: the
/// enqueue timestamp (service clock) of the request this pool thread is about
/// to run, 0 when the running request was not batched.
thread_local uint64_t tls_pending_enqueue_ns = 0;

/// Attributes the innermost active request to `id` (no-op outside one).
void TagRequestTenant(TenantId id) {
  if (RequestContext* ctx = RequestContext::Current()) ctx->tenant = id;
}

/// Charges the I/O of a served query to the active request.
void ChargeRequest(uint64_t pages, const PruneStats& prune) {
  if (RequestContext* ctx = RequestContext::Current()) {
    ctx->pages += pages;
    ctx->partitions_pruned += prune.pruned;
  }
}

/// The status a verb's result reports as the request's outcome.
const Status& OutcomeOf(const Status& status) { return status; }
template <typename T>
const Status& OutcomeOf(const Result<T>& result) {
  return result.status();
}

/// Typed requests bypass the parser, so the service re-checks the geometry
/// a GridQuery claims before any storage code trusts it.
Status ValidateQuery(const StarSchema& schema, const GridQuery& query) {
  if (query.cls.num_dims() != schema.num_dims() ||
      query.block.size() != static_cast<size_t>(schema.num_dims())) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.cls.num_dims()) +
        " class dims / " + std::to_string(query.block.size()) +
        " blocks for a " + std::to_string(schema.num_dims()) + "-dim schema");
  }
  for (int d = 0; d < schema.num_dims(); ++d) {
    const Hierarchy& h = schema.dim(d);
    const int level = query.cls.level(d);
    if (level < 0 || level > h.num_levels()) {
      return Status::OutOfRange("query level " + std::to_string(level) +
                                " outside [0, " +
                                std::to_string(h.num_levels()) +
                                "] in dimension " + h.name());
    }
    if (query.block[static_cast<size_t>(d)] >= h.num_blocks(level)) {
      return Status::OutOfRange(
          "query block " +
          std::to_string(query.block[static_cast<size_t>(d)]) +
          " outside level " + std::to_string(level) + " of dimension " +
          h.name() + " (" + std::to_string(h.num_blocks(level)) + " blocks)");
    }
  }
  return Status::OK();
}

/// Admission of verbs that accept every request against a resolved tenant.
constexpr auto kAdmitAll = [](const auto*, ScopedSpan&) {
  return Status::OK();
};

/// Admission of the typed query verbs: only geometry-valid queries count.
auto AdmitQuery(const GridQuery& query) {
  return [&query](const auto* tenant, ScopedSpan&) {
    return ValidateQuery(*tenant->schema, query);
  };
}

std::string_view TrimWhitespace(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string TenantStatus::ToString() const {
  std::string out = "tenant " + name + " (id " + std::to_string(id) + ")\n";
  out += "  epochs closed " + std::to_string(epochs_closed) + ", ingested " +
         std::to_string(ingested_total) + " (" +
         std::to_string(ingested_this_epoch) + " open)\n";
  out += "  published epoch " + std::to_string(published_sequence) +
         ", strategy " + (current_strategy.empty() ? "-" : current_strategy) +
         ", backend " + (backend.empty() ? "-" : backend) + ", cost model " +
         (cost_model.empty() ? "-" : cost_model) + "\n";
  out += "  recluster epochs " + std::to_string(recluster_epochs) +
         ", adoptions " + std::to_string(recluster_adoptions) + "\n";
  return out;
}

struct AdvisorService::Tenant {
  Tenant(TenantId id_in, TenantSpec spec, const ReclusterConfig& engine_config,
         int window_epochs, int slo_buckets)
      : id(id_in),
        name(std::move(spec.name)),
        schema(std::move(spec.schema)),
        facts(std::move(spec.facts)),
        tables(std::move(spec.tables)),
        lattice(*schema),
        advisor(schema),
        window(lattice, window_epochs),
        pending(lattice.size(), 0.0),
        cost_model(engine_config.cost_model != nullptr
                       ? engine_config.cost_model
                       : DefaultCostModel()),
        engine(schema, facts, engine_config),
        slo(slo_buckets) {}

  TenantId id;
  const std::string name;
  const std::shared_ptr<const StarSchema> schema;
  const std::shared_ptr<const FactTable> facts;
  const std::vector<DimensionTable> tables;
  const QueryClassLattice lattice;
  const ClusteringAdvisor advisor;

  /// Guards the workload state: window, advise memo, open-epoch counts.
  mutable std::mutex state_mu;
  WindowDriftEstimator window;
  IncrementalAdvisorState advise_state;
  std::vector<double> pending;
  uint64_t pending_ingests = 0;
  uint64_t ingested_total = 0;
  uint64_t epochs_closed = 0;
  /// The tenant's live time model (never null); prices advise expected_ms.
  /// Guarded by state_mu; SetCostModel also hands it to the engine under
  /// recluster_mu for net-benefit pricing.
  std::shared_ptr<const CostModel> cost_model;

  /// Serializes ReclusterEngine epochs (the engine is not thread-safe).
  std::mutex recluster_mu;
  ReclusterEngine engine;

  /// Held only to copy or swap the epoch pointer — never across an advise,
  /// a pack, or any I/O, which is what keeps readers block-free.
  mutable std::mutex epoch_mu;
  std::shared_ptr<const TenantEpoch> epoch;
  uint64_t published_sequence = 0;

  /// Sliding-window latency/error SLO tracker, rotated by the sampler.
  SloWindow slo;
  /// Service-clock time of the last Publish (epoch age in telemetry).
  std::atomic<uint64_t> last_publish_ns{0};
  /// Background reclusters scheduled vs finished; the difference is the
  /// tenant's recluster backlog.
  std::atomic<uint64_t> reclusters_scheduled{0};
  std::atomic<uint64_t> reclusters_completed{0};

  /// Resolved once at registration when metrics are attached.
  Counter* requests_counter = nullptr;
  Counter* ingested_counter = nullptr;
  Counter* reclusters_counter = nullptr;
};

AdvisorService::AdvisorService(ServiceConfig config)
    : config_(std::move(config)),
      clock_epoch_(std::chrono::steady_clock::now()),
      recorder_(config_.telemetry.recorder_capacity),
      audit_(config_.telemetry.audit_capacity),
      request_pool_(std::make_unique<ThreadPool>(
          config_.request_threads <= 0 ? 1 : config_.request_threads)),
      background_pool_(std::make_unique<ThreadPool>(1)) {
  if (config_.obs.metrics != nullptr) {
    requests_completed_ =
        config_.obs.metrics->GetCounter("service.requests.completed");
    requests_errors_ =
        config_.obs.metrics->GetCounter("service.requests.errors");
  }
  if (!config_.telemetry.error_dump_path.empty()) {
    // One-shot: on the first non-OK request the recorder dumps itself, so
    // the lead-up to the first failure is preserved without being asked.
    recorder_.SetErrorHook([this](const RequestRecord&) {
      std::ofstream out(config_.telemetry.error_dump_path);
      out << recorder_.ToJson(/*pretty=*/true);
    });
  }
  if (config_.telemetry.sampler_interval_ms > 0) {
    sampler_thread_ = std::thread(&AdvisorService::SamplerLoop, this);
  }
}

AdvisorService::~AdvisorService() { Shutdown(); }

uint64_t AdvisorService::NowNs() const { return ElapsedNs(clock_epoch_); }

void AdvisorService::SamplerLoop() {
  const auto interval =
      std::chrono::milliseconds(config_.telemetry.sampler_interval_ms);
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!sampler_stop_) {
    if (sampler_cv_.wait_for(lock, interval,
                             [this] { return sampler_stop_; })) {
      break;
    }
    lock.unlock();
    AdvanceSloWindows();
    lock.lock();
  }
}

void AdvisorService::StopSampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_thread_.joinable()) sampler_thread_.join();
}

void AdvisorService::AdvanceSloWindows() {
  std::vector<Tenant*> tenants;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants.reserve(tenants_.size());
    for (const auto& tenant : tenants_) tenants.push_back(tenant.get());
  }
  // Tenant storage is stable (append-only vector of unique_ptrs), so the
  // rotation runs outside tenants_mu_.
  for (Tenant* tenant : tenants) tenant->slo.Advance();
}

void AdvisorService::Shutdown() {
  StopSampler();
  // Requests first: a draining request may still schedule a recluster,
  // which the background pool either runs (pre-shutdown) or rejects into
  // the service.recluster.rejected counter.
  request_pool_->Shutdown();
  background_pool_->Shutdown();
}

Result<AdvisorService::Tenant*> AdvisorService::Find(TenantId id) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  if (id >= tenants_.size()) {
    return Status::NotFound("no tenant with id " + std::to_string(id));
  }
  TagRequestTenant(id);
  return tenants_[id].get();
}

Result<TenantId> AdvisorService::FindTenant(std::string_view name) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("no tenant named '" + std::string(name) + "'");
  }
  return it->second;
}

uint64_t AdvisorService::num_tenants() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_.size();
}

// ---- The request path ---------------------------------------------------

template <typename Fn>
auto AdvisorService::RunRequest(RequestVerb verb, Fn&& fn) {
  // A request made while serving another (a Dispatch verb calling the typed
  // surface) is part of the outer request, which owns the record.
  if (RequestContext::Current() != nullptr) return fn();
  RequestContext ctx;
  ctx.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.verb = verb;
  ctx.start_ns = NowNs();
  // A batched request left its submit time in the thread-local; a direct
  // sync call was never queued, so enqueue == start.
  ctx.enqueue_ns = std::exchange(tls_pending_enqueue_ns, 0);
  if (ctx.enqueue_ns == 0) ctx.enqueue_ns = ctx.start_ns;
  auto out = [&] {
    // The context must be current before the span opens (the span reads it
    // for its "rid" arg) and must outlive it.
    const RequestContextScope scope(&ctx);
    const ScopedSpan span(config_.obs.tracer,
                          std::string("request/") + RequestVerbName(verb),
                          "request");
    return fn();
  }();
  ctx.status = OutcomeOf(out).code();
  ctx.finish_ns = NowNs();
  recorder_.Record(ctx);
  if (ctx.tenant != kNoTenant) {
    const Result<Tenant*> tenant = Find(ctx.tenant);
    if (tenant.ok()) {
      tenant.value()->slo.Record(ctx.verb, ctx.compute_ns(),
                                 ctx.status != StatusCode::kOk);
    }
  }
  if (requests_completed_ != nullptr) {
    requests_completed_->Inc();
    if (ctx.status != StatusCode::kOk) requests_errors_->Inc();
  }
  return out;
}

template <typename Admit, typename Body>
auto AdvisorService::RunVerb(RequestVerb verb, TenantId id,
                             const char* span_name, Admit&& admit,
                             Body&& body) {
  using R = std::invoke_result_t<Body&, Tenant*, ScopedSpan&>;
  return RunRequest(verb, [&]() -> R {
    SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
    ScopedSpan span(config_.obs.tracer, span_name, "service");
    SNAKES_RETURN_IF_ERROR(admit(tenant, span));
    if (tenant->requests_counter != nullptr) tenant->requests_counter->Inc();
    return body(tenant, span);
  });
}

Result<TenantId> AdvisorService::RegisterTenant(TenantSpec spec) {
  return RunRequest(RequestVerb::kRegister, [&]() -> Result<TenantId> {
    ScopedSpan span(config_.obs.tracer, "service/register", "service");
    if (spec.name.empty()) {
      return Status::InvalidArgument("tenant name must be non-empty");
    }
    if (spec.schema == nullptr) {
      return Status::InvalidArgument("tenant schema must be non-null");
    }
    if (spec.facts != nullptr && &spec.facts->schema() != spec.schema.get()) {
      return Status::InvalidArgument(
          "tenant fact table belongs to a different schema");
    }
    if (!spec.tables.empty() &&
        spec.tables.size() != static_cast<size_t>(spec.schema->num_dims())) {
      return Status::InvalidArgument(
          "tenant needs one dimension table per schema dimension (got " +
          std::to_string(spec.tables.size()) + " for " +
          std::to_string(spec.schema->num_dims()) + " dims)");
    }
    // A taken name is rejected before any advise or pack work, and again at
    // insert, where a concurrent registration of the same name can land.
    const Status name_taken = Status::InvalidArgument(
        "tenant '" + spec.name + "' is already registered");
    if (FindTenant(spec.name).ok()) return name_taken;
    span.AddArg("tenant", spec.name);

    ReclusterConfig engine_config = config_.recluster;
    engine_config.storage = config_.storage;
    engine_config.backend = spec.backend;
    engine_config.obs = config_.obs;
    SNAKES_ASSIGN_OR_RETURN(engine_config.cost_model,
                            MakeCostModel(spec.cost_model));
    span.AddArg("cost_model", engine_config.cost_model->name());

    const QueryClassLattice lattice(*spec.schema);
    Workload initial = spec.initial_workload.has_value()
                           ? *spec.initial_workload
                           : Workload::Uniform(lattice);
    if (initial.size() != lattice.size()) {
      return Status::InvalidArgument(
          "initial workload lattice does not match the tenant schema");
    }

    auto tenant = std::make_unique<Tenant>(0, std::move(spec), engine_config,
                                           config_.window_epochs,
                                           config_.telemetry.slo_buckets);
    Tenant* t = tenant.get();
    SNAKES_RETURN_IF_ERROR(t->window.Observe(initial));

    // Advise + pack + publish epoch 1 before the tenant becomes visible, so a
    // registered tenant always serves from a live epoch.
    EpochReport initial_report;
    {
      std::lock_guard<std::mutex> lock(t->recluster_mu);
      SNAKES_ASSIGN_OR_RETURN(initial_report, t->engine.OnEpoch(initial));
      Publish(t, t->engine.current(), t->engine.current_backend());
    }

    std::lock_guard<std::mutex> lock(tenants_mu_);
    if (by_name_.count(t->name) > 0) return name_taken;
    const TenantId id = tenants_.size();
    t->id = id;
    TagRequestTenant(id);
    AuditDecision(t, initial_report);
    if (config_.obs.metrics != nullptr) {
      const std::string prefix = "service.tenant." + t->name;
      t->requests_counter =
          config_.obs.metrics->GetCounter(prefix + ".requests");
      t->ingested_counter =
          config_.obs.metrics->GetCounter(prefix + ".ingested");
      t->reclusters_counter =
          config_.obs.metrics->GetCounter(prefix + ".reclusters");
      config_.obs.metrics->GetCounter("service.tenants")->Inc();
    }
    by_name_.emplace(t->name, id);
    tenants_.push_back(std::move(tenant));
    return id;
  });
}

void AdvisorService::AuditDecision(const Tenant* tenant,
                                   const EpochReport& report) {
  ReclusterAuditEntry entry;
  entry.timestamp_ns = NowNs();
  if (const RequestContext* ctx = RequestContext::Current()) {
    entry.request_id = ctx->id;
  }
  entry.tenant = tenant->id;
  entry.engine_epoch = report.epoch;
  entry.decision = report.decision;
  entry.drift = report.drift;
  entry.budget_pages = config_.recluster.movement_budget_pages;
  entry.current_cost = report.current_cost;
  entry.proposed_cost = report.proposed_cost;
  entry.relative_improvement = report.relative_improvement;
  entry.net_benefit = report.net_benefit;
  entry.pages_moved = report.movement.pages_moved();
  entry.current_strategy = report.current_strategy;
  entry.proposed_strategy = report.proposed_strategy;
  audit_.Record(std::move(entry));
}

void AdvisorService::Publish(Tenant* tenant,
                             std::shared_ptr<const Linearization> lin,
                             std::shared_ptr<const StorageBackend> backend) {
  auto epoch = std::make_shared<TenantEpoch>();
  epoch->linearization = std::move(lin);
  epoch->backend = std::move(backend);
  {
    std::lock_guard<std::mutex> lock(tenant->epoch_mu);
    epoch->sequence = ++tenant->published_sequence;
    tenant->epoch = std::move(epoch);
  }
  tenant->last_publish_ns.store(NowNs(), std::memory_order_relaxed);
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("service.epochs_published")->Inc();
  }
}

Result<std::shared_ptr<const TenantEpoch>> AdvisorService::PinEpoch(
    TenantId id) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const TenantEpoch> pinned;
  {
    std::lock_guard<std::mutex> lock(tenant->epoch_mu);
    pinned = tenant->epoch;
  }
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetHistogram("service.epoch.pin_ns")
        ->Record(ElapsedNs(start));
  }
  if (pinned == nullptr) {
    return Status::Internal("tenant '" + tenant->name +
                            "' has no published epoch");
  }
  return pinned;
}

Result<std::shared_ptr<const TenantEpoch>> AdvisorService::PinStorage(
    const Tenant* tenant) const {
  SNAKES_ASSIGN_OR_RETURN(std::shared_ptr<const TenantEpoch> epoch,
                          PinEpoch(tenant->id));
  if (epoch->backend == nullptr) {
    return Status::FailedPrecondition("tenant '" + tenant->name +
                                      "' is analytic (no fact table)");
  }
  return epoch;
}

Result<Workload> AdvisorService::SmoothedWorkload(TenantId id) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
  std::lock_guard<std::mutex> lock(tenant->state_mu);
  return tenant->window.Smoothed();
}

Status AdvisorService::Ingest(TenantId id, const GridQuery& query) {
  return RunVerb(
      RequestVerb::kIngest, id, "service/ingest", AdmitQuery(query),
      [&](Tenant* tenant, ScopedSpan&) -> Status {
        if (tenant->ingested_counter != nullptr) {
          tenant->ingested_counter->Inc();
        }
        bool closed = false;
        {
          std::lock_guard<std::mutex> lock(tenant->state_mu);
          tenant->pending[tenant->lattice.Index(query.cls)] += 1.0;
          ++tenant->pending_ingests;
          ++tenant->ingested_total;
          if (config_.ingests_per_epoch > 0 &&
              tenant->pending_ingests >= config_.ingests_per_epoch) {
            SNAKES_RETURN_IF_ERROR(CloseEpochLocked(tenant));
            closed = true;
          }
        }
        if (closed) MaybeScheduleRecluster(tenant);
        return Status::OK();
      });
}

Status AdvisorService::CloseEpochLocked(Tenant* tenant) {
  if (tenant->pending_ingests == 0) {
    return Status::FailedPrecondition(
        "tenant '" + tenant->name +
        "': no queries ingested since the last epoch close");
  }
  SNAKES_ASSIGN_OR_RETURN(
      Workload epoch_mu_w,
      Workload::FromDense(tenant->lattice, tenant->pending,
                          /*normalize=*/true));
  SNAKES_RETURN_IF_ERROR(tenant->window.Observe(epoch_mu_w));
  std::fill(tenant->pending.begin(), tenant->pending.end(), 0.0);
  tenant->pending_ingests = 0;
  ++tenant->epochs_closed;
  if (config_.obs.metrics != nullptr) {
    config_.obs.metrics->GetCounter("service.epochs_closed")->Inc();
    config_.obs.metrics->GetGauge("service.window.last_drift")
        ->Set(tenant->window.LastDrift());
  }
  return Status::OK();
}

Result<uint64_t> AdvisorService::EndEpoch(TenantId id) {
  return RunVerb(
      RequestVerb::kEndEpoch, id, "service/end_epoch", kAdmitAll,
      [&](Tenant* tenant, ScopedSpan&) -> Result<uint64_t> {
        uint64_t closed = 0;
        {
          std::lock_guard<std::mutex> lock(tenant->state_mu);
          SNAKES_RETURN_IF_ERROR(CloseEpochLocked(tenant));
          closed = tenant->epochs_closed;
        }
        MaybeScheduleRecluster(tenant);
        return closed;
      });
}

void AdvisorService::MaybeScheduleRecluster(Tenant* tenant) {
  if (!config_.recluster_on_epoch_close) return;
  MetricsRegistry* metrics = config_.obs.metrics;
  const TenantId id = tenant->id;
  auto submitted = background_pool_->TrySubmit([this, id, metrics]() {
    // The background job is a request of its own: it gets the next id, its
    // spans nest under "request/recluster", and its completion lands in the
    // flight recorder like any foreground request. It is not a tenant
    // request, so it does not count against service.tenant.<name>.requests.
    RunRequest(RequestVerb::kRecluster, [&]() -> Result<EpochReport> {
      SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
      ScopedSpan span(config_.obs.tracer, "service/recluster", "service");
      Result<EpochReport> report = RunRecluster(tenant, &span);
      tenant->reclusters_completed.fetch_add(1, std::memory_order_relaxed);
      if (!report.ok() && metrics != nullptr) {
        metrics->GetCounter("service.recluster.errors")->Inc();
      }
      return report;
    });
  });
  if (submitted.ok()) {
    tenant->reclusters_scheduled.fetch_add(1, std::memory_order_relaxed);
  } else if (metrics != nullptr) {
    metrics->GetCounter("service.recluster.rejected")->Inc();
  }
}

Result<EpochReport> AdvisorService::RunRecluster(Tenant* tenant,
                                                 ScopedSpan* span) {
  span->AddArg("tenant", tenant->name);
  if (tenant->reclusters_counter != nullptr) tenant->reclusters_counter->Inc();
  Workload mu = [&] {
    std::lock_guard<std::mutex> lock(tenant->state_mu);
    return tenant->window.Smoothed();
  }();
  std::lock_guard<std::mutex> lock(tenant->recluster_mu);
  SNAKES_ASSIGN_OR_RETURN(EpochReport report, tenant->engine.OnEpoch(mu));
  AuditDecision(tenant, report);
  if (report.decision == ReclusterDecision::kAdopt ||
      report.decision == ReclusterDecision::kInitialAdopt) {
    // Double-buffer publish: readers pinned to the previous epoch keep it
    // alive; new pins see the fresh layout immediately.
    Publish(tenant, tenant->engine.current(),
            tenant->engine.current_backend());
  }
  return report;
}

Result<EpochReport> AdvisorService::ReclusterNow(TenantId id) {
  return RunVerb(
      RequestVerb::kRecluster, id, "service/recluster", kAdmitAll,
      [&](Tenant* tenant, ScopedSpan& span) {
        return RunRecluster(tenant, &span);
      });
}

Status AdvisorService::SetBackend(TenantId id, StorageBackendKind kind) {
  return RunVerb(
      RequestVerb::kBackend, id, "service/set_backend", kAdmitAll,
      [&](Tenant* tenant, ScopedSpan& span) -> Status {
        span.AddArg("tenant", tenant->name);
        span.AddArg("backend", StorageBackendKindName(kind));
        std::lock_guard<std::mutex> lock(tenant->recluster_mu);
        if (tenant->engine.backend_kind() == kind) return Status::OK();
        SNAKES_ASSIGN_OR_RETURN(std::shared_ptr<const StorageBackend> backend,
                                tenant->engine.SwitchBackend(kind));
        if (tenant->engine.current() != nullptr) {
          // Analytic tenants publish a null backend either way; fact-backed
          // ones double-buffer the repacked representation exactly like an
          // adoption.
          Publish(tenant, tenant->engine.current(), std::move(backend));
        }
        return Status::OK();
      });
}

Status AdvisorService::SetCostModel(TenantId id, const CostModelSpec& spec) {
  // Only a spec that builds a model counts as a request of the tenant.
  std::shared_ptr<const CostModel> model;
  const auto admit = [&](const Tenant* tenant, ScopedSpan& span) -> Status {
    span.AddArg("tenant", tenant->name);
    SNAKES_ASSIGN_OR_RETURN(model, MakeCostModel(spec));
    span.AddArg("cost_model", model->name());
    return Status::OK();
  };
  return RunVerb(
      RequestVerb::kCostModel, id, "service/set_cost_model", admit,
      [&](Tenant* tenant, ScopedSpan&) -> Status {
        // Two consumers, two locks: the advise path reads under state_mu,
        // the engine prices net benefit under recluster_mu. No cache is
        // invalidated — per-class costs are model-independent, so the next
        // warm advise still serves from the memo.
        {
          std::lock_guard<std::mutex> lock(tenant->state_mu);
          tenant->cost_model = model;
        }
        {
          std::lock_guard<std::mutex> lock(tenant->recluster_mu);
          tenant->engine.SetCostModel(model);
        }
        if (config_.obs.metrics != nullptr) {
          config_.obs.metrics->GetCounter("service.costmodel_switches")->Inc();
        }
        return Status::OK();
      });
}

Result<Recommendation> AdvisorService::Advise(TenantId id) {
  return RunVerb(
      RequestVerb::kAdvise, id, "service/advise", kAdmitAll,
      [&](Tenant* tenant, ScopedSpan& span) {
        span.AddArg("tenant", tenant->name);
        std::lock_guard<std::mutex> lock(tenant->state_mu);
        EvaluationRequest request{tenant->window.Smoothed()};
        request.strategies = config_.recluster.strategies;
        request.num_threads = 1;  // the request pool is the parallelism
        request.obs = config_.obs;
        request.cost_model = tenant->cost_model;
        return tenant->advisor.AdviseIncremental(request,
                                                 &tenant->advise_state);
      });
}

Result<QueryAnswer> AdvisorService::Query(TenantId id, const GridQuery& query) {
  return RunVerb(
      RequestVerb::kQuery, id, "service/query", AdmitQuery(query),
      [&](Tenant* tenant, ScopedSpan&) -> Result<QueryAnswer> {
        SNAKES_ASSIGN_OR_RETURN(std::shared_ptr<const TenantEpoch> epoch,
                                PinStorage(tenant));
        const QueryEngine engine(*epoch->backend, config_.obs);
        PruneStats prune;
        const QueryAnswer answer = engine.Execute(query, &prune);
        ChargeRequest(answer.io.pages, prune);
        return answer;
      });
}

Result<QueryIo> AdvisorService::Measure(TenantId id, const GridQuery& query) {
  return RunVerb(
      RequestVerb::kMeasure, id, "service/measure", AdmitQuery(query),
      [&](Tenant* tenant, ScopedSpan&) -> Result<QueryIo> {
        SNAKES_ASSIGN_OR_RETURN(std::shared_ptr<const TenantEpoch> epoch,
                                PinStorage(tenant));
        const IoSimulator simulator(*epoch->backend, config_.obs);
        PruneStats prune;
        const QueryIo io = simulator.Measure(query, &prune);
        ChargeRequest(io.pages, prune);
        return io;
      });
}

Result<TenantStatus> AdvisorService::StatusOf(TenantId id) const {
  SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));
  TenantStatus status;
  status.id = tenant->id;
  status.name = tenant->name;
  {
    std::lock_guard<std::mutex> lock(tenant->state_mu);
    status.epochs_closed = tenant->epochs_closed;
    status.ingested_total = tenant->ingested_total;
    status.ingested_this_epoch = tenant->pending_ingests;
    status.cost_model = tenant->cost_model->name();
  }
  {
    std::lock_guard<std::mutex> lock(tenant->epoch_mu);
    status.published_sequence = tenant->published_sequence;
  }
  {
    std::lock_guard<std::mutex> lock(tenant->recluster_mu);
    status.recluster_epochs = tenant->engine.epochs_seen();
    status.recluster_adoptions = tenant->engine.adoptions();
    status.backend = StorageBackendKindName(tenant->engine.backend_kind());
    if (tenant->engine.current() != nullptr) {
      status.current_strategy = tenant->engine.current()->name();
    }
  }
  return status;
}

// ---- Batched request surface ------------------------------------------

template <typename R>
std::future<R> AdvisorService::SubmitInstrumented(ThreadPool* pool,
                                                  const char* type,
                                                  std::function<R()> fn) {
  Histogram* queue_hist = nullptr;
  Histogram* compute_hist = nullptr;
  if (config_.obs.metrics != nullptr) {
    const std::string prefix = std::string("service.") + type;
    queue_hist = config_.obs.metrics->GetHistogram(prefix + ".queue_ns");
    compute_hist = config_.obs.metrics->GetHistogram(prefix + ".compute_ns");
  }
  const auto submitted = std::chrono::steady_clock::now();
  const uint64_t enqueue_ns = NowNs();
  auto accepted = pool->TrySubmit(
      [submitted, enqueue_ns, queue_hist, compute_hist,
       fn = std::move(fn)]() -> R {
        const auto start = std::chrono::steady_clock::now();
        if (queue_hist != nullptr) queue_hist->Record(ElapsedNs(submitted));
        // Leave the submit time for the request the handler starts, so
        // batched requests record a real queue wait.
        tls_pending_enqueue_ns = enqueue_ns;
        R out = fn();
        tls_pending_enqueue_ns = 0;
        if (compute_hist != nullptr) compute_hist->Record(ElapsedNs(start));
        return out;
      });
  if (accepted.ok()) return std::move(accepted).value();
  std::promise<R> rejected;
  rejected.set_value(R(Status::FailedPrecondition(
      std::string("service: ") + type + " submitted after Shutdown()")));
  return rejected.get_future();
}

std::future<Status> AdvisorService::SubmitIngest(TenantId id, GridQuery query) {
  return SubmitInstrumented<Status>(
      request_pool_.get(), "ingest",
      [this, id, query = std::move(query)]() { return Ingest(id, query); });
}

std::future<Result<uint64_t>> AdvisorService::SubmitEndEpoch(TenantId id) {
  return SubmitInstrumented<Result<uint64_t>>(
      request_pool_.get(), "end_epoch", [this, id]() { return EndEpoch(id); });
}

std::future<Result<Recommendation>> AdvisorService::SubmitAdvise(TenantId id) {
  return SubmitInstrumented<Result<Recommendation>>(
      request_pool_.get(), "advise", [this, id]() { return Advise(id); });
}

std::future<Result<QueryAnswer>> AdvisorService::SubmitQuery(TenantId id,
                                                             GridQuery query) {
  return SubmitInstrumented<Result<QueryAnswer>>(
      request_pool_.get(), "query",
      [this, id, query = std::move(query)]() { return Query(id, query); });
}

std::future<Result<QueryIo>> AdvisorService::SubmitMeasure(TenantId id,
                                                           GridQuery query) {
  return SubmitInstrumented<Result<QueryIo>>(
      request_pool_.get(), "measure",
      [this, id, query = std::move(query)]() { return Measure(id, query); });
}

std::future<Result<EpochReport>> AdvisorService::SubmitRecluster(TenantId id) {
  return SubmitInstrumented<Result<EpochReport>>(
      background_pool_.get(), "recluster",
      [this, id]() { return ReclusterNow(id); });
}

std::future<Result<std::string>> AdvisorService::SubmitDispatch(
    std::string tenant_name, std::string request) {
  return SubmitInstrumented<Result<std::string>>(
      request_pool_.get(), "dispatch",
      [this, tenant_name = std::move(tenant_name),
       request = std::move(request)]() {
        return Dispatch(tenant_name, request);
      });
}

// ---- Textual surface ---------------------------------------------------

Result<std::string> AdvisorService::Dispatch(std::string_view tenant_name,
                                             std::string_view request) {
  const std::string_view trimmed = TrimWhitespace(request);
  const size_t space = trimmed.find(' ');
  const std::string_view verb_text = trimmed.substr(0, space);
  const std::string_view payload =
      space == std::string_view::npos
          ? std::string_view{}
          : TrimWhitespace(trimmed.substr(space + 1));
  // The verb is parsed before the request opens so the recorded request
  // carries it even when the tenant lookup (or the request itself) fails.
  // The typed verbs called below nest inside this request: it owns the
  // record, and they count the tenant's request as on the typed surface.
  const RequestVerb verb = ParseRequestVerb(verb_text);
  return RunRequest(verb, [&]() -> Result<std::string> {
    SNAKES_ASSIGN_OR_RETURN(TenantId id, FindTenant(tenant_name));
    SNAKES_ASSIGN_OR_RETURN(Tenant * tenant, Find(id));

    const auto parse_query = [&]() -> Result<GridQuery> {
      if (tenant->tables.empty()) {
        return Status::FailedPrecondition(
            "tenant '" + tenant->name +
            "' registered no dimension tables; textual queries are disabled");
      }
      return ParseGridQuery(*tenant->schema, tenant->tables, payload);
    };

    switch (verb) {
      case RequestVerb::kAdvise: {
        SNAKES_ASSIGN_OR_RETURN(Recommendation rec, Advise(id));
        if (!rec.has_best()) {
          return Status::InvalidArgument("no strategy applies to the schema");
        }
        return "best " + rec.best().name + " cost " +
               FormatDouble(rec.best().expected_cost, 4) + " (" +
               std::to_string(rec.ranked.size()) + " strategies)";
      }
      case RequestVerb::kIngest: {
        SNAKES_ASSIGN_OR_RETURN(GridQuery query, parse_query());
        SNAKES_RETURN_IF_ERROR(Ingest(id, query));
        return std::string("ingested " + query.ToString());
      }
      case RequestVerb::kQuery: {
        SNAKES_ASSIGN_OR_RETURN(GridQuery query, parse_query());
        SNAKES_ASSIGN_OR_RETURN(QueryAnswer answer, Query(id, query));
        return "count " + std::to_string(answer.count) + " sum " +
               FormatDouble(answer.sum, 2) + " pages " +
               std::to_string(answer.io.pages) + " seeks " +
               std::to_string(answer.io.seeks);
      }
      case RequestVerb::kMeasure: {
        SNAKES_ASSIGN_OR_RETURN(GridQuery query, parse_query());
        SNAKES_ASSIGN_OR_RETURN(QueryIo io, Measure(id, query));
        return "records " + std::to_string(io.records) + " pages " +
               std::to_string(io.pages) + " seeks " + std::to_string(io.seeks);
      }
      case RequestVerb::kEndEpoch: {
        SNAKES_ASSIGN_OR_RETURN(uint64_t epoch, EndEpoch(id));
        return "closed epoch " + std::to_string(epoch);
      }
      case RequestVerb::kRecluster: {
        SNAKES_ASSIGN_OR_RETURN(EpochReport report, ReclusterNow(id));
        return std::string(ReclusterDecisionName(report.decision)) + " " +
               report.proposed_strategy;
      }
      case RequestVerb::kStatus: {
        SNAKES_ASSIGN_OR_RETURN(TenantStatus status, StatusOf(id));
        return status.ToString();
      }
      case RequestVerb::kBackend: {
        if (payload.empty()) {
          std::lock_guard<std::mutex> lock(tenant->recluster_mu);
          return "backend " + std::string(StorageBackendKindName(
                                  tenant->engine.backend_kind()));
        }
        SNAKES_ASSIGN_OR_RETURN(StorageBackendKind kind,
                                ParseStorageBackendKind(payload));
        SNAKES_RETURN_IF_ERROR(SetBackend(id, kind));
        return "backend " + std::string(StorageBackendKindName(kind));
      }
      case RequestVerb::kCostModel: {
        //   costmodel                         -> report the live model's JSON
        //   costmodel analytic|hdd|ssd        -> switch to a preset
        //   costmodel calibrated <json|path>  -> load fitted coefficients
        if (payload.empty()) {
          std::lock_guard<std::mutex> lock(tenant->state_mu);
          return "costmodel " + tenant->cost_model->name() + " " +
                 tenant->cost_model->ToJson();
        }
        const size_t split = payload.find(' ');
        CostModelSpec spec;
        SNAKES_ASSIGN_OR_RETURN(spec.kind,
                                ParseCostModelKind(payload.substr(0, split)));
        if (split != std::string_view::npos) {
          spec.calibrated_json =
              std::string(TrimWhitespace(payload.substr(split + 1)));
        }
        SNAKES_RETURN_IF_ERROR(SetCostModel(id, spec));
        return "costmodel " + std::string(CostModelKindName(spec.kind));
      }
      case RequestVerb::kTelemetry: {
        // Service-wide telemetry, reachable from any registered tenant:
        //   telemetry [json]   -> full snapshot as JSON
        //   telemetry prom     -> Prometheus text exposition
        //   telemetry recorder -> flight-recorder dump only
        //   telemetry advance  -> rotate the SLO windows (sampler-less mode)
        if (payload.empty() || payload == "json") {
          return Telemetry().ToJson(/*pretty=*/true);
        }
        if (payload == "prom" || payload == "prometheus") {
          return Telemetry().ToPrometheus();
        }
        if (payload == "recorder") return recorder_.ToJson(/*pretty=*/true);
        if (payload == "advance") {
          AdvanceSloWindows();
          return std::string("advanced slo windows");
        }
        return Status::InvalidArgument("unknown telemetry format '" +
                                       std::string(payload) + "'");
      }
      case RequestVerb::kRegister:  // registration is typed-only
      case RequestVerb::kUnknown:
        break;
    }
    return Status::InvalidArgument("unknown request verb '" +
                                   std::string(verb_text) + "'");
  });
}

TelemetrySnapshot AdvisorService::Telemetry() const {
  TelemetrySnapshot snap;
  snap.now_ns = NowNs();
  snap.recorder_capacity = recorder_.capacity();
  snap.recorder_recorded = recorder_.recorded();
  snap.requests = recorder_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    snap.tenants.reserve(tenants_.size());
    for (const auto& tenant : tenants_) {
      TenantTelemetry t;
      t.tenant = tenant->id;
      t.name = tenant->name;
      t.slo = tenant->slo.Snap();
      const uint64_t published =
          tenant->last_publish_ns.load(std::memory_order_relaxed);
      t.epoch_age_ns = snap.now_ns >= published ? snap.now_ns - published : 0;
      {
        std::lock_guard<std::mutex> epoch_lock(tenant->epoch_mu);
        t.published_sequence = tenant->published_sequence;
      }
      {
        std::lock_guard<std::mutex> state_lock(tenant->state_mu);
        t.cost_model = tenant->cost_model->name();
      }
      const uint64_t scheduled =
          tenant->reclusters_scheduled.load(std::memory_order_relaxed);
      const uint64_t completed =
          tenant->reclusters_completed.load(std::memory_order_relaxed);
      t.recluster_backlog = scheduled >= completed ? scheduled - completed : 0;
      snap.tenants.push_back(std::move(t));
    }
  }
  snap.audit = audit_.Snapshot();
  if (config_.obs.tracer != nullptr) {
    snap.trace_spans = config_.obs.tracer->num_events();
    snap.trace_dropped_spans = config_.obs.tracer->dropped_spans();
  }
  return snap;
}

}  // namespace snakes
