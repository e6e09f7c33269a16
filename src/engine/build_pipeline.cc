#include "engine/build_pipeline.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <semaphore>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "engine/cure.h"
#include "storage/file_io.h"

namespace cure {
namespace engine {

using cube::CatFormatArbiter;
using cube::CubeStore;
using cube::SignaturePool;

Result<std::string> CreateBuildScratchDir(const std::string& base) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path dir =
      std::filesystem::path(base) / ("cure_build_" + std::to_string(::getpid()) +
                                     "_" + std::to_string(seq));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create build scratch dir " + dir.string() +
                           ": " + ec.message());
  }
  return dir.string();
}

void RemoveBuildScratchDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // Best effort.
}

BuildPipeline::BuildPipeline(const BuildContext& ctx, cube::CubeStore* store,
                             BuildStats* stats)
    : ctx_(ctx),
      store_(store),
      stats_(stats),
      pool_(ctx.schema->num_aggregates(),
            ctx.options->dims_in_nt ? ctx.schema->num_dims() : 0,
            ctx.options->signature_pool_capacity) {}

BuildPipeline::~BuildPipeline() = default;

namespace {

/// Times one stage: wall on construction/destruction scope, CPU of the
/// calling thread. Parallel stages add worker CPU separately.
class StageTimer {
 public:
  explicit StageTimer(StageStats* out) : out_(out) {}
  ~StageTimer() {
    out_->wall_seconds += wall_.ElapsedSeconds();
    out_->cpu_seconds += cpu_.ElapsedSeconds();
  }

 private:
  StageStats* out_;
  Stopwatch wall_;
  ThreadCpuStopwatch cpu_;
};

}  // namespace

Status BuildPipeline::Run() {
  CURE_TRACE_SPAN("cure.build.run", "threads",
                  static_cast<uint64_t>(ctx_.external ? ctx_.num_threads : 1));
  Stopwatch watch;
  stats_->num_threads = ctx_.external ? ctx_.num_threads : 1;
  CURE_RETURN_IF_ERROR(LoadStage());
  if (ctx_.external) CURE_RETURN_IF_ERROR(PartitionStage());
  CURE_RETURN_IF_ERROR(ConstructStage());
  CURE_RETURN_IF_ERROR(MergeStage());
  CURE_RETURN_IF_ERROR(PersistStage());
  stats_->build_seconds = watch.ElapsedSeconds();
  const uint64_t input_rows = ctx_.input->table != nullptr
                                  ? ctx_.input->table->num_rows()
                                  : ctx_.input->relation->num_rows();
  if (stats_->build_seconds > 0) {
    GlobalMetrics().gauge("cure_build_rows_per_sec")
        ->Set(static_cast<double>(input_rows) / stats_->build_seconds);
  }
  return Status::OK();
}

Status BuildPipeline::LoadStage() {
  CURE_TRACE_SPAN("cure.build.load");
  StageTimer timer(&stats_->load_stage);
  if (!ctx_.external) {
    if (ctx_.input->table != nullptr) {
      load_ = LoadFromTable(*ctx_.input->table, *ctx_.schema);
    } else {
      CURE_ASSIGN_OR_RETURN(
          load_, LoadFromFactRelation(*ctx_.input->relation, *ctx_.schema));
    }
    load_ready_ = true;
    FixRecordLayout(load_.measure_ranges, 0);
    return Status::OK();
  }
  // External path: partitions are loaded lazily by the construct stage, one
  // (or one per in-flight worker) at a time; here we only validate.
  if (ctx_.input->relation == nullptr) {
    return Status::InvalidArgument(
        "external construction needs the fact table in relation form");
  }
  if (ctx_.options->plan_style != plan::Style::kTall) {
    return Status::Unimplemented("external path requires the tall (P3) plan");
  }
  stats_->external = true;
  return Status::OK();
}

Status BuildPipeline::PartitionStage() {
  CURE_TRACE_SPAN("cure.build.partition");
  StageTimer timer(&stats_->partition_stage);
  PartitionOptions popts;
  popts.memory_budget_bytes = ctx_.options->memory_budget_bytes;
  popts.temp_dir = ctx_.scratch_dir;
  std::vector<cube::ValueRange> measure_ranges;
  CURE_ASSIGN_OR_RETURN(
      std::vector<std::vector<uint64_t>> hist,
      ComputeLevelHistograms(*ctx_.input->relation, *ctx_.schema,
                             &measure_ranges));
  CURE_ASSIGN_OR_RETURN(
      LevelChoice choice,
      SelectPartitionLevel(*ctx_.schema, hist, ctx_.input->relation->num_rows(),
                           popts));
  CURE_ASSIGN_OR_RETURN(outcome_, PartitionFact(*ctx_.input->relation,
                                                *ctx_.schema, choice, hist,
                                                popts));
  stats_->partition_level = outcome_.level;
  stats_->num_partitions = outcome_.partitions.size();
  stats_->n_rows = outcome_.n_table->num_rows;
  stats_->n_bytes = outcome_.n_table->bytes();
  stats_->partition_write_bytes = outcome_.write_bytes;
  FixRecordLayout(std::move(measure_ranges), outcome_.n_table->num_rows);
  return Status::OK();
}

void BuildPipeline::FixRecordLayout(std::vector<cube::ValueRange> measure_ranges,
                                    uint64_t n_rows) {
  cube::WidthBounds bounds = cube::BoundsForRows(
      ctx_.input->num_rows(), store_->codec().num_nodes(),
      std::move(measure_ranges));
  bounds.rowid_rows = std::max(bounds.rowid_rows, n_rows);
  layout_ = cube::ChooseRecordLayout(ctx_.schema->aggregates(), bounds);
  *store_ = CubeStore(ctx_.schema, store_->options(), layout_);
}

Status BuildPipeline::ConstructOnePartition(size_t index,
                                            cube::CubeStore* store,
                                            cube::SignaturePool* pool,
                                            BuildStats* stats) {
  storage::Relation& part = outcome_.partitions[index];
  CURE_TRACE_SPAN("cure.build.partition_construct", "partition",
                  static_cast<uint64_t>(index), "rows", part.num_rows());
  stats->partition_read_bytes += part.bytes();
  CURE_ASSIGN_OR_RETURN(Load load, LoadFromPartition(part, *ctx_.schema));
  Executor executor(ctx_.schema, ctx_.options, store, pool, stats);
  CURE_RETURN_IF_ERROR(executor.RunPartition(load, outcome_.level));
  // Partition-boundary flush: CAT detection never spans sound partitions,
  // which is what makes per-partition construction order-independent (and
  // the parallel build byte-identical to this serial reference).
  ++stats->signature_flushes;
  CURE_RETURN_IF_ERROR(pool->Flush(store));
  const std::string path = part.path();
  part = storage::Relation();  // Close before removing.
  return storage::RemoveFile(path);
}

Status BuildPipeline::ConstructStage() {
  CURE_TRACE_SPAN("cure.build.construct");
  StageTimer timer(&stats_->construct_stage);
  if (!ctx_.external) {
    CURE_CHECK(load_ready_);
    Executor executor(ctx_.schema, ctx_.options, store_, &pool_, stats_);
    return executor.RunInMemory(load_);
  }
  if (ctx_.num_threads <= 1 || outcome_.partitions.size() <= 1) {
    return ConstructSerial();
  }
  return ConstructParallel();
}

Status BuildPipeline::ConstructSerial() {
  for (size_t p = 0; p < outcome_.partitions.size(); ++p) {
    CURE_RETURN_IF_ERROR(ConstructOnePartition(p, store_, &pool_, stats_));
  }
  return Status::OK();
}

Status BuildPipeline::ConstructParallel() {
  const size_t num_partitions = outcome_.partitions.size();
  shards_.clear();
  shards_.resize(num_partitions);

  // Divide the memory budget across in-flight partitions: each worker holds
  // at most max_partition_rows * record_size bytes of loaded partition data.
  const uint64_t per_partition_bytes =
      std::max<uint64_t>(1, outcome_.max_partition_rows *
                                PartitionRecordSize(*ctx_.schema));
  const uint64_t cap = std::clamp<uint64_t>(
      ctx_.options->memory_budget_bytes / per_partition_bytes, 1,
      static_cast<uint64_t>(ctx_.num_threads));
  stats_->max_in_flight_partitions = cap;

  CatFormatArbiter arbiter(num_partitions);

  // The in-flight cap is taken by the *submitter* before each Submit, and the
  // pool dispatches strictly FIFO, so the set of started partitions is always
  // a prefix of 0..P-1 in partition order. That is what makes the arbiter
  // deadlock-free: a worker blocked in Propose(p) only ever waits on
  // partitions q < p, all of which have started and will reach Finish(q).
  std::counting_semaphore<> slots(static_cast<std::ptrdiff_t>(cap));

  ThreadPool pool(ctx_.num_threads);
  std::vector<std::future<Status>> futures;
  futures.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    slots.acquire();
    futures.push_back(pool.Submit([this, p, &arbiter, &slots]() -> Status {
      ThreadCpuStopwatch cpu;
      BuildStats local;
      auto shard = std::make_unique<CubeStore>(ctx_.schema, store_->options(),
                                               layout_);
      SignaturePool shard_pool(ctx_.schema->num_aggregates(),
                               ctx_.options->dims_in_nt ? ctx_.schema->num_dims()
                                                        : 0,
                               ctx_.options->signature_pool_capacity);
      shard_pool.BindArbiter(&arbiter, p);
      Status status = ConstructOnePartition(p, shard.get(), &shard_pool, &local);
      // Always retire this partition from the arbiter — even on error —
      // so workers blocked in Propose() do not wait forever.
      arbiter.Finish(p);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_->signature_flushes += local.signature_flushes;
        stats_->partition_read_bytes += local.partition_read_bytes;
        stats_->construct_stage.cpu_seconds += cpu.ElapsedSeconds();
        if (status.ok()) shards_[p] = std::move(shard);
      }
      slots.release();
      return status;
    }));
  }

  Status first_error = Status::OK();
  for (std::future<Status>& f : futures) {
    Status s = f.get();
    if (first_error.ok() && !s.ok()) first_error = std::move(s);
  }
  pool.Shutdown();
  return first_error;
}

Status BuildPipeline::MergeStage() {
  if (!ctx_.external) return Status::OK();
  CURE_TRACE_SPAN("cure.build.merge");
  StageTimer timer(&stats_->merge_stage);
  // Stitch shards in partition order; with sound partitions this reproduces
  // the serial append order exactly (serial construction visits partitions
  // 0..P-1 and flushes at every boundary).
  for (std::unique_ptr<CubeStore>& shard : shards_) {
    if (shard == nullptr) continue;
    CURE_RETURN_IF_ERROR(store_->MergeShard(std::move(*shard)));
    shard.reset();
  }
  shards_.clear();
  // Node N's region (dimension 0 above level L) is disjoint from every
  // partition's region, so it is built after the merge into the main store
  // with the shared pool, same as the serial schedule.
  Load nload = LoadFromAggTable(*outcome_.n_table, *ctx_.schema);
  Executor executor(ctx_.schema, ctx_.options, store_, &pool_, stats_);
  return executor.RunNodeN(nload, outcome_.level);
}

Status BuildPipeline::PersistStage() {
  CURE_TRACE_SPAN("cure.build.persist");
  StageTimer timer(&stats_->persist_stage);
  ++stats_->signature_flushes;
  CURE_RETURN_IF_ERROR(pool_.Flush(store_));
  const CubeStore::ClassCounts counts = store_->Counts();
  stats_->tt = counts.tt;
  stats_->nt = counts.nt;
  stats_->cat = counts.cat;
  stats_->aggregates_rows = counts.aggregates;
  stats_->num_relations = store_->NumRelations();
  return Status::OK();
}

}  // namespace engine
}  // namespace cure
