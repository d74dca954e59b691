// Database: catalog + shared resources (disk, buffer pool, scan scheduler,
// transaction manager, monitoring) — the embedding point of the engine.
//
// Thread-safety contract (serving layer, docs/SERVING.md): one Database
// serves any number of concurrent Sessions. Everything reachable through
// the accessors below — catalog lookup/registration, scheduler, spill
// device, memory tracker root, plan cache, quota controller, query
// registry, event log, counters, buffer pool, transaction manager — is
// safe to call from any thread. The exception is config(): it returns a
// mutable reference with no synchronization, so reconfigure only while no
// query is in flight (tests flip knobs between runs; a serving process
// sets the config once at startup). Destruction drains async submissions
// first (DrainAsync), so PendingQuery tasks never outlive the Database.
#ifndef X100_ENGINE_DATABASE_H_
#define X100_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/adaptive_quota.h"
#include "common/config.h"
#include "common/memory_tracker.h"
#include "common/task_scheduler.h"
#include "engine/plan_cache.h"
#include "monitor/monitor.h"
#include "pdt/transaction.h"
#include "storage/buffer_manager.h"
#include "storage/catalog.h"
#include "storage/coop_scan.h"
#include "storage/file_block_device.h"
#include "storage/simulated_disk.h"
#include "storage/spill_device.h"

namespace x100 {

class Database {
 public:
  explicit Database(EngineConfig config = EngineConfig())
      : config_(config),
        memory_(ResolvedMemoryLimit(config.memory_limit)),
        disk_(config.disk_bandwidth),
        data_device_(OpenDataDevice(config.data_path, config.disk_bandwidth,
                                    &open_status_)),
        buffers_(data_device_ != nullptr
                     ? static_cast<BlockDevice*>(data_device_.get())
                     : static_cast<BlockDevice*>(&disk_),
                 ResolvedBufferPoolBytes(config.buffer_pool_bytes)),
        plan_cache_(config.plan_cache_capacity) {
    queries_.set_history_cap(config.query_history_cap);
    buffers_.set_prefetch_budget_bytes(config.prefetch_budget_bytes);
    if (open_status_.ok() && data_device_ != nullptr) {
      open_status_ = LoadCatalogIntoTables();
    }
    if (!open_status_.ok()) {
      events_.Error("database open failed: " + open_status_.ToString());
    }
  }

  ~Database() {
    // Async queries run on the (possibly process-global) scheduler and
    // reference this Database's registry, trackers and tables — they must
    // complete before any member is torn down.
    DrainAsync();
  }

  /// The process-wide memory budget: config.memory_limit, or — when the
  /// config leaves it at 0 (unlimited) — the X100_MEMORY_LIMIT environment
  /// knob, which lets CI run the whole test suite with a tight default so
  /// the sanitizer jobs exercise the spill paths without per-test setup.
  static int64_t ResolvedMemoryLimit(int64_t configured) {
    if (configured != 0) return configured;
    const char* env = std::getenv("X100_MEMORY_LIMIT");
    if (env == nullptr || *env == '\0') return 0;
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    // Strict plain-bytes parse: "4M"-style suffixes or garbage would
    // otherwise silently become a wrong (or disabled) budget — warn once
    // and run unlimited instead.
    if (end == env || *end != '\0' || v < 0) {
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "x100: ignoring malformed X100_MEMORY_LIMIT=\"%s\" "
                     "(expected plain bytes, e.g. 4194304)\n",
                     env);
      }
      return 0;
    }
    return v;
  }

  /// The buffer pool byte budget: config.buffer_pool_bytes when >= 0, or
  /// — when the config leaves it negative (auto) — the X100_BUFFER_POOL
  /// environment knob, which lets CI run whole test suites under a tight
  /// pool (e.g. "4MiB") so eviction paths are exercised without per-test
  /// setup. Accepts plain bytes or a binary suffix (K/Ki/KiB, M/Mi/MiB,
  /// G/Gi/GiB — all powers of 1024). Unset or malformed (warned once)
  /// falls back to 64 MiB.
  static int64_t ResolvedBufferPoolBytes(int64_t configured) {
    if (configured >= 0) return configured;
    constexpr int64_t kDefault = 64ll * 1024 * 1024;
    const char* env = std::getenv("X100_BUFFER_POOL");
    if (env == nullptr || *env == '\0') return kDefault;
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    int64_t mult = 0;
    if (end != env && v >= 0) {
      const std::string suffix(end);
      if (suffix.empty()) {
        mult = 1;
      } else if (suffix == "K" || suffix == "Ki" || suffix == "KiB") {
        mult = 1024;
      } else if (suffix == "M" || suffix == "Mi" || suffix == "MiB") {
        mult = 1024 * 1024;
      } else if (suffix == "G" || suffix == "Gi" || suffix == "GiB") {
        mult = 1024ll * 1024 * 1024;
      }
    }
    if (mult == 0) {
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "x100: ignoring malformed X100_BUFFER_POOL=\"%s\" "
                     "(expected bytes or a binary suffix, e.g. 4MiB)\n",
                     env);
      }
      return kDefault;
    }
    return static_cast<int64_t>(v) * mult;
  }

  /// The spill directory: config.spill_path, or — when the config leaves
  /// it empty — the X100_SPILL_PATH environment knob, which lets CI run
  /// whole test suites over the file-backed device without per-test
  /// setup. Empty means "spill to the SimulatedDisk".
  static std::string ResolvedSpillPath(const std::string& configured) {
    if (!configured.empty()) return configured;
    const char* env = std::getenv("X100_SPILL_PATH");
    return env != nullptr ? std::string(env) : std::string();
  }

  /// The device out-of-core execution spills to: a view over the in-RAM
  /// SimulatedDisk by default, or over a lazily-created temp
  /// FileBlockDevice when a spill path is configured. Creation failure
  /// (missing/unwritable directory) is returned, not swallowed — a
  /// configured spill path that cannot be used must fail queries loudly
  /// instead of silently keeping spilled state in RAM. The device lives
  /// until Database destruction, which removes its temp file.
  Result<SpillDevice*> spill_device() {
    const std::string dir = ResolvedSpillPath(config_.spill_path);
    if (dir.empty()) return &ram_spill_;
    std::lock_guard<std::mutex> lock(spill_device_mu_);
    if (file_spill_ == nullptr || file_spill_dir_ != dir) {
      // A device whose directory no longer matches the config is
      // retired — kept alive until Database destruction, like retired
      // schedulers — since in-flight queries may still hold SpillFiles
      // pointing at it.
      if (file_spill_ != nullptr) {
        retired_spill_devices_.push_back(std::move(file_spill_));
      }
      std::unique_ptr<FileBlockDevice> file;
      X100_ASSIGN_OR_RETURN(file, FileBlockDevice::CreateTemp(dir));
      file_spill_ = std::make_unique<SpillDevice>(std::move(file));
      file_spill_dir_ = dir;
    }
    return file_spill_.get();
  }

  /// The temp file spilling currently targets, if one has been created
  /// (tests install fault hooks through this); nullptr while spilling
  /// targets the SimulatedDisk.
  FileBlockDevice* file_spill_device() {
    std::lock_guard<std::mutex> lock(spill_device_mu_);
    return file_spill_ != nullptr
               ? static_cast<FileBlockDevice*>(file_spill_->device())
               : nullptr;
  }

  /// Starts a table definition; finish with RegisterTable(builder.Finish()).
  /// Blocks go to the durable device when data_path is configured, else to
  /// the SimulatedDisk. Column chunks compress on scheduler().
  std::unique_ptr<TableBuilder> CreateTable(const std::string& name,
                                            Schema schema, Layout layout,
                                            int64_t group_rows = 0) {
    return std::make_unique<TableBuilder>(name, std::move(schema), layout,
                                          block_device(), group_rows,
                                          scheduler());
  }

  Result<UpdatableTable*> RegisterTable(std::unique_ptr<Table> table) {
    X100_RETURN_IF_ERROR(open_status_);
    const std::string name = table->name();
    UpdatableTable* ptr = nullptr;
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      if (tables_.count(name)) {
        return Status::AlreadyExists("table " + name + " already exists");
      }
      auto updatable = std::make_unique<UpdatableTable>(std::move(table));
      ptr = updatable.get();
      tables_[name] = std::move(updatable);
      catalog_version_.fetch_add(1, std::memory_order_acq_rel);
    }
    events_.Info("created table " + name);
    const Status saved = SaveCatalog();
    if (!saved.ok()) {
      // A failed operation must not leave memory and disk diverged: undo
      // the registration. The object is retired, not destroyed — a racing
      // GetTable may already have resolved the name to it.
      {
        std::lock_guard<std::mutex> lock(tables_mu_);
        auto it = tables_.find(name);
        if (it != tables_.end() && it->second.get() == ptr) {
          retired_tables_.push_back(std::move(it->second));
          tables_.erase(it);
        }
        catalog_version_.fetch_add(1, std::memory_order_acq_rel);
      }
      events_.Error("rolled back table " + name +
                    " (catalog save failed): " + saved.ToString());
      return saved;
    }
    return ptr;
  }

  /// DDL drop. The table object is RETIRED — kept alive until Database
  /// destruction, like retired schedulers — because in-flight queries may
  /// still hold a pointer resolved before the drop; it just becomes
  /// unreachable by name. Bumps the catalog version, so plans cached
  /// against the old catalog are invalidated on next lookup.
  Status DropTable(const std::string& name) {
    X100_RETURN_IF_ERROR(open_status_);
    UpdatableTable* dropped = nullptr;
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::NotFound("table not found: " + name);
      }
      dropped = it->second.get();
      retired_tables_.push_back(std::move(it->second));
      tables_.erase(it);
      catalog_version_.fetch_add(1, std::memory_order_acq_rel);
    }
    events_.Info("dropped table " + name);
    const Status saved = SaveCatalog();
    if (!saved.ok()) {
      // The durable catalog still lists the table; resurrect it in memory
      // so a failed drop leaves both sides agreeing that it exists.
      {
        std::lock_guard<std::mutex> lock(tables_mu_);
        for (auto it = retired_tables_.begin(); it != retired_tables_.end();
             ++it) {
          if (it->get() == dropped) {
            if (tables_.count(name) == 0) {
              tables_[name] = std::move(*it);
              retired_tables_.erase(it);
            }
            break;
          }
        }
        catalog_version_.fetch_add(1, std::memory_order_acq_rel);
      }
      events_.Error("rolled back drop of " + name +
                    " (catalog save failed): " + saved.ToString());
    }
    return saved;
  }

  /// Quiesced checkpoint of one table (pdt/transaction.h) followed by a
  /// catalog save, so the rewritten block map is durable. This is the
  /// durability boundary: deltas committed but not yet checkpointed live
  /// only in the in-memory read-PDT and do NOT survive a restart.
  Status Checkpoint(const std::string& name) {
    X100_RETURN_IF_ERROR(open_status_);
    UpdatableTable* table = nullptr;
    X100_ASSIGN_OR_RETURN(table, GetTable(name));
    std::vector<BlockId> retired;
    X100_RETURN_IF_ERROR(txn_manager_.Checkpoint(table, &buffers_, &retired));
    const Status saved = SaveCatalog();
    if (!saved.ok()) {
      // The durable (old) catalog still references the retired slots;
      // recycling one under a concurrent write would make a reopened
      // Database serve the wrong block's bytes. Leave them allocated —
      // they are reclaimed by the free-list restore on the next open.
      events_.Error("checkpoint of " + name + " not durable, keeping " +
                    std::to_string(retired.size()) +
                    " retired block(s) allocated: " + saved.ToString());
      return saved;
    }
    for (BlockId id : retired) block_device()->FreeBlock(id);
    return Status::OK();
  }

  /// Serializes every table's schema + block map to
  /// `<data_path>/x100-catalog.bin` (no-op without a data_path). The data
  /// file is synced first so the catalog never references blocks that are
  /// not yet stable.
  Status SaveCatalog() {
    if (data_device_ == nullptr) return Status::OK();
    std::vector<CatalogTable> cat;
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      cat.reserve(tables_.size());
      for (const auto& [name, ut] : tables_) {
        const Table* base = ut->base();
        CatalogTable t;
        t.name = name;
        t.schema = base->schema();
        t.layout = base->layout();
        t.num_rows = base->num_rows();
        t.groups.reserve(base->num_groups());
        for (int g = 0; g < base->num_groups(); g++) {
          t.groups.push_back(base->group(g));
        }
        cat.push_back(std::move(t));
      }
    }
    X100_RETURN_IF_ERROR(data_device_->Sync());
    return x100::SaveCatalog(config_.data_path, cat);
  }

  Result<UpdatableTable*> GetTable(const std::string& name) {
    std::lock_guard<std::mutex> lock(tables_mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table not found: " + name);
    }
    return it->second.get();
  }

  /// Monotonic catalog version: bumped by every schema-affecting change
  /// (RegisterTable/DropTable). The plan-cache key — a prepared plan is
  /// only served while the catalog it was compiled against is current.
  /// Data changes (PDT commits, appends) deliberately do NOT bump it:
  /// physical planning re-reads table state per execution (see
  /// engine/plan_cache.h).
  int64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }

  /// Prepared-statement cache (Session::Prepare). Sized once at
  /// construction from config.plan_cache_capacity.
  PlanCache* plan_cache() { return &plan_cache_; }

  /// The adaptive task-quota controller governing this Database's queries
  /// (common/adaptive_quota.h). Created lazily against the current
  /// scheduler + configured budget; a controller invalidated by a config
  /// change is retired (quotas of in-flight queries still point into it)
  /// rather than destroyed. Callers with query_task_quota < 0 (unlimited)
  /// must not register — QueryExecutor runs those queries quota-less.
  AdaptiveQuotaController* quota_controller() {
    TaskScheduler* sched = scheduler();
    std::lock_guard<std::mutex> lock(quota_mu_);
    if (quota_controller_ == nullptr || quota_scheduler_ != sched ||
        quota_budget_ != config_.query_task_quota) {
      if (quota_controller_ != nullptr) {
        retired_quota_controllers_.push_back(std::move(quota_controller_));
      }
      quota_controller_ = std::make_unique<AdaptiveQuotaController>(
          sched, config_.query_task_quota);
      quota_scheduler_ = sched;
      quota_budget_ = config_.query_task_quota;
    }
    return quota_controller_.get();
  }

  // --- Async admission (Session::Submit / PendingQuery) ---------------

  /// Admits one async query against config.admission_queue_cap (counting
  /// queued + running submissions; 0 = unbounded). On success the caller
  /// MUST pair with FinishAsync when the query completes.
  Status TryAdmitAsync() {
    std::lock_guard<std::mutex> lock(async_mu_);
    const int cap = config_.admission_queue_cap;
    if (cap > 0 && async_inflight_ >= cap) {
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(async_inflight_) + "/" +
          std::to_string(cap) + " async queries in flight)");
    }
    async_inflight_++;
    return Status::OK();
  }

  void FinishAsync() {
    {
      std::lock_guard<std::mutex> lock(async_mu_);
      async_inflight_--;
    }
    async_cv_.notify_all();
  }

  int async_inflight() const {
    std::lock_guard<std::mutex> lock(async_mu_);
    return async_inflight_;
  }

  /// Blocks until every admitted async query has completed. Called by the
  /// destructor; also useful as a test barrier. Must not be called from a
  /// scheduler worker (it would wait on itself).
  void DrainAsync() {
    std::unique_lock<std::mutex> lock(async_mu_);
    async_cv_.wait(lock, [this] { return async_inflight_ == 0; });
  }

  /// Mutable engine configuration. NOT synchronized: reconfigure only
  /// while no query is in flight (see the class comment).
  EngineConfig& config() { return config_; }

  /// Pool parallel plans run on: the process-wide scheduler by default, or
  /// a private pool when config.scheduler_workers > 0 (created lazily so
  /// the common case never spawns extra threads). Creation is mutex-
  /// guarded, and a pool whose worker count no longer matches the config
  /// is retired — kept alive until Database destruction — rather than
  /// destroyed, since in-flight queries may still hold a pointer to it.
  TaskScheduler* scheduler() {
    if (config_.scheduler_workers <= 0) return TaskScheduler::Global();
    std::lock_guard<std::mutex> lock(scheduler_mu_);
    if (own_scheduler_ == nullptr ||
        own_scheduler_->num_workers() != config_.scheduler_workers) {
      if (own_scheduler_ != nullptr) {
        retired_schedulers_.push_back(std::move(own_scheduler_));
      }
      own_scheduler_ =
          std::make_unique<TaskScheduler>(config_.scheduler_workers);
    }
    return own_scheduler_.get();
  }

  /// Root of the memory-tracker hierarchy: every query's tracker parents
  /// here, so used() is the engine-wide footprint of materialized query
  /// state. The limit follows the config: QueryExecutor re-applies it at
  /// each query start (tests flip config().memory_limit between runs).
  MemoryTracker* memory() { return &memory_; }

  SimulatedDisk* disk() { return &disk_; }
  /// The device base-table blocks live on: the durable FileBlockDevice
  /// when data_path is configured, else the SimulatedDisk.
  BlockDevice* block_device() {
    return data_device_ != nullptr
               ? static_cast<BlockDevice*>(data_device_.get())
               : static_cast<BlockDevice*>(&disk_);
  }
  /// The durable device if one is open (tests install fault hooks through
  /// this); nullptr in RAM-backed mode.
  FileBlockDevice* data_device() { return data_device_.get(); }
  /// Construction outcome: data-device open + catalog load. A Database
  /// whose open_status() is non-OK has an empty catalog; the write entry
  /// points (RegisterTable/DropTable/Checkpoint) refuse with this status,
  /// so the durable state on disk is left untouched and a caller cannot
  /// accidentally run a volatile database believing it durable.
  const Status& open_status() const { return open_status_; }
  BufferManager* buffers() { return &buffers_; }
  TransactionManager* txn_manager() { return &txn_manager_; }
  EventLog* events() { return &events_; }
  QueryRegistry* queries() { return &queries_; }
  Counters* counters() { return &counters_; }

 private:
  static std::unique_ptr<FileBlockDevice> OpenDataDevice(
      const std::string& data_path, int64_t bandwidth_bytes_per_sec,
      Status* status) {
    if (data_path.empty()) return nullptr;
    auto dev = FileBlockDevice::Open(data_path, bandwidth_bytes_per_sec);
    if (!dev.ok()) {
      *status = dev.status();
      return nullptr;
    }
    return std::move(dev).value();
  }

  /// Rebuilds Table images from the persisted catalog and teaches the
  /// data device which slots are live (free-list restore). A catalog that
  /// names slots past the end of the data file fails the open here, before
  /// any table is published, not at the first scan that reaches them.
  /// Ctor-only.
  Status LoadCatalogIntoTables() {
    std::vector<CatalogTable> cat;
    X100_ASSIGN_OR_RETURN(cat, LoadCatalog(config_.data_path));
    std::vector<std::unique_ptr<Table>> restored;
    std::vector<BlockId> live;
    for (CatalogTable& t : cat) {
      restored.push_back(Table::Restore(std::move(t.name), std::move(t.schema),
                                        t.layout, data_device_.get(),
                                        std::move(t.groups), t.num_rows));
      for (BlockId b : restored.back()->CollectBlockIds()) live.push_back(b);
    }
    X100_RETURN_IF_ERROR(data_device_->RestoreAllocated(live));
    {
      std::lock_guard<std::mutex> lock(tables_mu_);
      for (auto& table : restored) {
        const std::string name = table->name();
        tables_[name] = std::make_unique<UpdatableTable>(std::move(table));
      }
    }
    if (!cat.empty()) {
      events_.Info("catalog loaded: " + std::to_string(cat.size()) +
                   " table(s) from " + config_.data_path);
    }
    return Status::OK();
  }

  EngineConfig config_;
  MemoryTracker memory_;
  std::mutex scheduler_mu_;
  std::unique_ptr<TaskScheduler> own_scheduler_;
  std::vector<std::unique_ptr<TaskScheduler>> retired_schedulers_;
  SimulatedDisk disk_;
  SpillDevice ram_spill_{&disk_};
  Status open_status_;  // before data_device_: its initializer writes here
  std::unique_ptr<FileBlockDevice> data_device_;
  std::mutex spill_device_mu_;
  std::unique_ptr<SpillDevice> file_spill_;
  std::vector<std::unique_ptr<SpillDevice>> retired_spill_devices_;
  std::string file_spill_dir_;
  BufferManager buffers_;
  TransactionManager txn_manager_;
  std::mutex tables_mu_;
  std::map<std::string, std::unique_ptr<UpdatableTable>> tables_;
  std::vector<std::unique_ptr<UpdatableTable>> retired_tables_;
  std::atomic<int64_t> catalog_version_{1};
  PlanCache plan_cache_;
  std::mutex quota_mu_;
  std::unique_ptr<AdaptiveQuotaController> quota_controller_;
  std::vector<std::unique_ptr<AdaptiveQuotaController>>
      retired_quota_controllers_;
  TaskScheduler* quota_scheduler_ = nullptr;
  int quota_budget_ = 0;
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;
  int async_inflight_ = 0;
  EventLog events_;
  QueryRegistry queries_;
  Counters counters_;
};

}  // namespace x100

#endif  // X100_ENGINE_DATABASE_H_
