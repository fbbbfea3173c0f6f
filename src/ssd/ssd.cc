#include "ssd/ssd.hh"

#include <algorithm>
#include <numeric>

#include "sim/logging.hh"

namespace spk
{

Ssd::Ssd(const SsdConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed),
      faults_(cfg.fault, cfg.seed, cfg.geometry)
{
    cfg_.validate();
    const FlashGeometry &geo = cfg_.geometry;

    ftl_ = std::make_unique<Ftl>(geo, cfg_.ftl, &faults_,
                                 cfg_.parity.enabled);

    backend_ = std::make_unique<FlashBackend>(
        events_, geo, cfg_.timing, cfg_.decisionWindow, requestArena_,
        [this](MemoryRequest *req) { onRequestFinished(req); }, &faults_,
        &decoder_);
    backend_->reserveSteadyState(cfg_.nvmhc.queueDepth);

    gc_ = std::make_unique<GcManager>(*backend_,
                                      cfg_.gcMaxLiveBatchesPerPlane);

    nvmhc_ = std::make_unique<Nvmhc>(
        events_, *ftl_, *backend_,
        makeScheduler(cfg_.scheduler, cfg_.faroWindow), cfg_.nvmhc,
        [this](const IoRequest &io) {
            results_.push_back(IoResult{io.arrival, io.completed,
                                        io.isWrite, io.pageCount,
                                        io.streamId, io.failedPages});
            // Multi-queue runs: a completion frees a window slot on
            // its stream; issue the stream's next ready record.
            if (io.streamId < streamRt_.size()) {
                --streamRt_[io.streamId].inFlight;
                pumpStream(io.streamId);
            }
        });

    nvmhc_->setAfterEnqueueHook([this] { maybeCollectGc(); });
    nvmhc_->setReclaimHook([this] {
        // Emergency reclaim: a write found no free page. Collect past
        // the admission bound — bounding the batch table is pointless
        // if the device runs out of space instead.
        const GcBatchList &batches = ftl_->collectGcUrgent();
        if (batches.empty())
            return false;
        gc_->launch(batches, /*urgent=*/true);
        return true;
    });
    ftl_->setGcAdmission([this](std::uint64_t plane) {
        return !gc_->planeSaturated(plane);
    });
    gc_->setBatchRetiredHook([this] {
        // Retry only when the admission bound actually deferred work;
        // otherwise batch retirement keeps its pre-bound behavior
        // (collection triggers on enqueue alone).
        if (ftl_->stats().gcDeferrals > gcDeferralsSeen_) {
            gcDeferralsSeen_ = ftl_->stats().gcDeferrals;
            maybeCollectGc();
        }
    });
    ftl_->setReaddressCallback([this](Lpn lpn, Ppn from, Ppn to) {
        nvmhc_->readdress(lpn, from, to);
    });

    // Fault plumbing: the FTL launches block-retirement migration
    // batches through the GC engine (urgent — retirement must not be
    // deferred by the admission bound), and GC migration programs that
    // fail on flash are re-homed by the FTL.
    ftl_->setBatchLauncher([this](const GcBatchList &batches) {
        gc_->launch(batches, /*urgent=*/true);
    });
    gc_->setProgramFailHook(
        [this](Ppn failed) { return ftl_->onProgramFail(failed); });

    // Die-level parity: the engine keeps stripe parity consistent,
    // serves degraded reads by reconstruction and rebuilds a failed
    // die onto spare capacity in the background.
    if (cfg_.parity.enabled) {
        parity_ = std::make_unique<ParityEngine>(events_, *ftl_,
                                                 *backend_, cfg_.parity);
        parity_->setFinishReconstructHook(
            [this](MemoryRequest *req, bool ok) {
                nvmhc_->finishReconstructed(req, ok);
            });
        parity_->setRebuildCompleteHook([this] {
            ftl_->reviveDie(cfg_.fault.dieFailChip,
                            cfg_.fault.dieFailDie);
            faults_.reviveDie(events_.now());
            nvmhc_->kick();
        });
        nvmhc_->setReconstructHook([this](MemoryRequest *req) {
            return parity_->tryReconstruct(req);
        });
    }

    // Whole-die failure: at the configured tick, steer allocation and
    // GC away from the die's planes. In-flight and later reads on the
    // die fail via FaultModel::dieDead() at the controller.
    if (cfg_.fault.dieFailTick != 0) {
        events_.schedule(cfg_.fault.dieFailTick, [this] {
            ftl_->markDieDead(cfg_.fault.dieFailChip,
                              cfg_.fault.dieFailDie);
            if (parity_)
                parity_->onDieFailure(cfg_.fault.dieFailChip,
                                      cfg_.fault.dieFailDie);
        });
    }
}

void
Ssd::onRequestFinished(MemoryRequest *req)
{
    // The owner's dispatch can release the request to the arena;
    // capture what the parity engine needs first.
    const FlashOp op = req->op;
    const Ppn ppn = req->ppn;
    const bool failed = req->faultFailed;
    switch (req->owner) {
      case RequestOwner::Host:
        nvmhc_->onRequestFinished(req);
        break;
      case RequestOwner::Gc:
        gc_->onRequestFinished(req);
        nvmhc_->kick(); // a chip freed up: re-poll the host scheduler
        break;
      case RequestOwner::Parity:
        parity_->onRequestFinished(req);
        nvmhc_->kick();
        break;
    }
    // Every successful data-page program (host, GC migration, rebuild
    // relocation) is a stripe member the parity engine must track;
    // parity-slot programs are the engine's own closes.
    if (parity_ && op == FlashOp::Program && !failed &&
        !ftl_->parityMap()->isParityPage(ppn))
        parity_->onDataProgram(ppn);
}

void
Ssd::maybeCollectGc()
{
    // One collectGc round reclaims at most one block per needy plane;
    // loop (bounded) until every plane regains its threshold headroom.
    for (int round = 0; round < 64 && ftl_->gcNeeded(); ++round) {
        const GcBatchList &batches = ftl_->collectGc();
        if (batches.empty())
            break;
        gc_->launch(batches);
    }
    // Static wear leveling (disabled unless configured): one cold
    // block per trigger keeps the overhead bounded.
    if (ftl_->wearLevelNeeded()) {
        const GcBatchList &batches = ftl_->collectWearLevel();
        if (!batches.empty())
            gc_->launch(batches);
    }
}

std::pair<Lpn, std::uint32_t>
Ssd::pageSpan(std::uint64_t offset_bytes,
              std::uint64_t size_bytes) const
{
    if (size_bytes - 1 > UINT64_MAX - offset_bytes)
        fatal("Ssd: I/O byte range wraps past 2^64");
    const std::uint32_t page = cfg_.geometry.pageSizeBytes;
    const Lpn first = offset_bytes / page;
    const std::uint64_t last = (offset_bytes + size_bytes - 1) / page;
    if (last - first >= UINT32_MAX)
        fatal("Ssd: I/O spans more than 2^32 - 1 pages");
    return {first, static_cast<std::uint32_t>(last - first + 1)};
}

void
Ssd::reserveResults()
{
    std::size_t cap = results_.capacity();
    if (cap < submitted_) {
        while (cap < submitted_)
            cap = cap == 0 ? 1 : cap * 2;
        results_.reserve(cap);
    }
}

void
Ssd::submitAt(Tick when, bool is_write, std::uint64_t offset_bytes,
              std::uint64_t size_bytes, bool fua)
{
    if (size_bytes == 0)
        fatal("Ssd::submitAt zero-length I/O");
    if (when < events_.now())
        fatal("Ssd::submitAt arrival in the past");
    if (!streamCfgs_.empty())
        fatal("Ssd::submitAt cannot mix with replayStreams");

    const auto [first, pages] = pageSpan(offset_bytes, size_bytes);

    lastArrival_ = std::max(lastArrival_, when);
    ++submitted_;
    events_.schedule(when, [this, is_write, first = first,
                            pages = pages, fua, when] {
        nvmhc_->submit(is_write, first, pages, fua, when);
    });
}

void
Ssd::replay(const Trace &trace)
{
    for (const auto &rec : trace)
        submitAt(rec.arrival, rec.isWrite, rec.offsetBytes,
                 rec.sizeBytes, rec.fua);
    // Every submitted I/O eventually appends one IoResult; reserving
    // here keeps the subsequent run() allocation-free.
    reserveResults();
    // Likewise for the tag-wait backlog — capped: the realistic
    // high-water is the burst depth, not the trace length, and a
    // multi-million-record trace must not pre-carve hundreds of MB.
    // Beyond the cap the queue falls back to amortized growth (only
    // the zero-alloc-gated probes, which are far below it, need the
    // guarantee).
    constexpr std::uint64_t kBacklogReserveCap = 1 << 16;
    nvmhc_->reserveBacklog(static_cast<std::size_t>(
        std::min(submitted_, kBacklogReserveCap)));
}

void
Ssd::replayStreams(std::vector<HostStreamConfig> streams)
{
    validateStreams(streams);
    if (!streamCfgs_.empty())
        fatal("Ssd::replayStreams: streams already attached");
    if (submitted_ != 0)
        fatal("Ssd::replayStreams: do not mix with submitAt/replay");

    streamCfgs_ = std::move(streams);
    streamRt_.assign(streamCfgs_.size(), HostStreamRuntime{});

    std::vector<StreamInfo> infos;
    infos.reserve(streamCfgs_.size());
    for (const auto &scfg : streamCfgs_)
        infos.push_back(StreamInfo{scfg.weight, scfg.priority});
    nvmhc_->configureStreams(infos);

    // Schedule every record's arrival event upfront, stream-major in
    // record order, exactly like replay() does for the implicit
    // stream: same-tick arrivals keep a deterministic order (record
    // order within a stream, lower stream id first across streams).
    constexpr std::uint64_t kBacklogReserveCap = 1 << 16;
    for (std::uint32_t sid = 0; sid < streamCfgs_.size(); ++sid) {
        const HostStreamConfig &scfg = streamCfgs_[sid];
        for (const auto &rec : scfg.trace) {
            if (rec.arrival < events_.now())
                fatal("Ssd::replayStreams arrival in the past");
            lastArrival_ = std::max(lastArrival_, rec.arrival);
            ++submitted_;
            events_.schedule(rec.arrival,
                             [this, sid] { onStreamArrival(sid); });
        }
        // A windowed stream never has more than iodepth submissions
        // inside the NVMHC at once; an open-loop stream can flood
        // like replay() (same capped reserve policy).
        const std::uint64_t bound =
            scfg.iodepth == 0
                ? std::min<std::uint64_t>(scfg.trace.size(),
                                          kBacklogReserveCap)
                : scfg.iodepth;
        nvmhc_->reserveBacklog(static_cast<std::size_t>(bound), sid);
    }
    reserveResults();
}

void
Ssd::onStreamArrival(std::uint32_t sid)
{
    HostStreamRuntime &rt = streamRt_[sid];
    const HostStreamConfig &scfg = streamCfgs_[sid];
    if (rt.arrivalCursor >= scfg.trace.size())
        panic("Ssd::onStreamArrival past the end of stream " +
              scfg.name);
    const TraceRecord &rec = scfg.trace[rt.arrivalCursor++];
    if (scfg.iodepth != 0 && rt.inFlight >= scfg.iodepth) {
        ++rt.readyBacklog;
        return;
    }
    if (rt.readyBacklog != 0)
        panic("Ssd::onStreamArrival open window behind a backlog");
    issueStreamRecord(sid, rec);
}

void
Ssd::issueStreamRecord(std::uint32_t sid, const TraceRecord &rec)
{
    HostStreamRuntime &rt = streamRt_[sid];
    const auto [first, pages] =
        pageSpan(rec.offsetBytes, rec.sizeBytes);
    ++rt.issueCursor;
    ++rt.inFlight;
    // The record's trace arrival is the I/O's arrival for latency and
    // stall accounting: time spent waiting in the stream's window is
    // part of what the host observes.
    nvmhc_->submit(rec.isWrite, first, pages, rec.fua, rec.arrival,
                   sid);
}

void
Ssd::pumpStream(std::uint32_t sid)
{
    HostStreamRuntime &rt = streamRt_[sid];
    const HostStreamConfig &scfg = streamCfgs_[sid];
    while (rt.readyBacklog > 0 &&
           (scfg.iodepth == 0 || rt.inFlight < scfg.iodepth)) {
        --rt.readyBacklog;
        issueStreamRecord(sid, scfg.trace[rt.issueCursor]);
    }
}

void
Ssd::run()
{
    events_.run();
    if (!nvmhc_->idle())
        panic("Ssd::run finished with host I/O still outstanding");
    if (!gc_->idle())
        panic("Ssd::run finished with GC still outstanding");
    if (parity_ && !parity_->idle())
        panic("Ssd::run finished with parity work still outstanding");
    for (std::size_t sid = 0; sid < streamRt_.size(); ++sid) {
        const HostStreamRuntime &rt = streamRt_[sid];
        if (rt.issueCursor != streamCfgs_[sid].trace.size() ||
            rt.inFlight != 0 || rt.readyBacklog != 0)
            panic("Ssd::run finished with stream '" +
                  streamCfgs_[sid].name + "' not drained");
    }
}

void
Ssd::preconditionForGc(double fill_fraction, double churn_fraction)
{
    ftl_->precondition(fill_fraction, churn_fraction, rng_);
}

namespace
{

/**
 * Fill the latency fields of @p out (a MetricsSnapshot or a
 * StreamMetrics) from the sample @p lat, sorting it in place: mean,
 * max and the nearest-rank quantiles @p out has. No-op when empty.
 */
template <typename Metrics>
void
summarizeLatency(std::vector<Tick> &lat, Metrics &out)
{
    if (lat.empty())
        return;
    std::sort(lat.begin(), lat.end());
    const auto quantile = [&lat](double q) {
        return lat[static_cast<std::size_t>(
            q * static_cast<double>(lat.size() - 1))];
    };
    out.avgLatencyNs =
        static_cast<double>(std::accumulate(lat.begin(), lat.end(),
                                            Tick{0})) /
        static_cast<double>(lat.size());
    out.maxLatencyNs = lat.back();
    out.p99LatencyNs = quantile(0.99);
    if constexpr (requires { out.p50LatencyNs; }) {
        out.p50LatencyNs = quantile(0.50);
        out.p95LatencyNs = quantile(0.95);
    }
}

} // namespace

MetricsSnapshot
Ssd::metrics() const
{
    MetricsSnapshot m;
    m.scheduler = schedulerKindName(cfg_.scheduler);
    m.makespan = events_.now();
    m.deviceActiveTime = nvmhc_->deviceActiveTime(m.makespan);

    const auto &ns = nvmhc_->stats();
    m.iosCompleted = ns.iosCompleted;
    m.bytesRead = ns.bytesRead;
    m.bytesWritten = ns.bytesWritten;
    m.queueStallTime = ns.queueStallTime;
    m.staleRetries = ns.staleRetries;

    const double seconds =
        static_cast<double>(m.makespan) / static_cast<double>(kSecond);
    if (seconds > 0.0) {
        m.bandwidthKBps =
            static_cast<double>(m.bytesRead + m.bytesWritten) / 1024.0 /
            seconds;
        m.iops = static_cast<double>(m.iosCompleted) / seconds;
    }

    Tick read_sum = 0;
    Tick write_sum = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::vector<Tick> latencies;
    latencies.reserve(results_.size());
    for (const auto &res : results_) {
        const Tick lat = res.latency();
        latencies.push_back(lat);
        if (res.isWrite) {
            write_sum += lat;
            ++writes;
        } else {
            read_sum += lat;
            ++reads;
        }
    }
    summarizeLatency(latencies, m);
    if (reads > 0) {
        m.avgReadLatencyNs = static_cast<double>(read_sum) /
                             static_cast<double>(reads);
    }
    if (writes > 0) {
        m.avgWriteLatencyNs = static_cast<double>(write_sum) /
                              static_cast<double>(writes);
    }

    // Chip occupancy metrics.
    Tick busy_sum = 0;
    Tick cell_sum = 0;
    Tick plane_active_sum = 0;
    Tick chip_bus_sum = 0;
    std::array<std::uint64_t, 4> req_per_class{};
    std::uint64_t txns = 0;
    std::uint64_t reqs = 0;
    for (const auto &chip : backend_->chips()) {
        const auto &cs = chip->stats();
        busy_sum += cs.busyTime;
        cell_sum += cs.cellTime;
        plane_active_sum += cs.planeActiveTime;
        chip_bus_sum += cs.busTime;
        txns += cs.transactions;
        reqs += cs.requestsServed;
        for (int i = 0; i < 4; ++i)
            req_per_class[i] += cs.reqPerClass[i];
    }
    m.transactions = txns;
    m.requestsServed = reqs;

    const auto n_chips = static_cast<double>(backend_->chips().size());
    const double planes_per_chip =
        static_cast<double>(cfg_.geometry.diesPerChip *
                            cfg_.geometry.planesPerDie);
    if (m.makespan > 0) {
        m.chipUtilizationPct = 100.0 * static_cast<double>(busy_sum) /
                               (n_chips * static_cast<double>(m.makespan));
        m.flashLevelUtilizationPct =
            100.0 * static_cast<double>(plane_active_sum) /
            (n_chips * planes_per_chip *
             static_cast<double>(m.makespan));
    }
    if (m.deviceActiveTime > 0) {
        const double cap =
            n_chips * static_cast<double>(m.deviceActiveTime);
        const double busy =
            std::min(static_cast<double>(busy_sum), cap);
        m.interChipIdlenessPct = 100.0 * (1.0 - busy / cap);
    }
    if (busy_sum > 0) {
        m.intraChipIdlenessPct =
            100.0 * (1.0 - static_cast<double>(plane_active_sum) /
                               (static_cast<double>(busy_sum) *
                                planes_per_chip));
    }
    if (reqs > 0) {
        for (int i = 0; i < 4; ++i) {
            m.flpPct[i] = 100.0 *
                          static_cast<double>(req_per_class[i]) /
                          static_cast<double>(reqs);
        }
    }

    // Execution-time breakdown over chip-time capacity.
    Tick bus_held = 0;
    Tick contention = 0;
    for (const auto &channel : backend_->channels()) {
        bus_held += channel->stats().busHeldTime;
        contention += channel->stats().contentionTime;
    }
    if (m.makespan > 0) {
        const double cap = n_chips * static_cast<double>(m.makespan);
        m.execBusPct = 100.0 * static_cast<double>(bus_held) / cap;
        m.execContentionPct =
            100.0 * static_cast<double>(contention) / cap;
        m.execCellPct = 100.0 * static_cast<double>(cell_sum) / cap;
        m.execIdlePct = std::max(
            0.0, 100.0 - 100.0 * static_cast<double>(busy_sum) / cap);
    }

    m.gcBatches = gc_->stats().batches;
    m.pagesMigrated = ftl_->stats().pagesMigrated;

    // Reliability counters (all zero when the fault model is inert).
    const ControllerStats &fs = backend_->stats();
    m.readRetries = fs.readRetries;
    m.readRetriesByStep = fs.readRetriesByStep;
    m.uncorrectableReads = fs.uncorrectableReads;
    m.programFailures = fs.programFailures;
    const FtlStats &ft = ftl_->stats();
    m.programRemaps = ft.programRemaps;
    m.eraseFailures = ft.eraseFailures;
    m.blocksRetiredWear = ft.blocksRetiredWear;
    m.blocksRetiredProgram = ft.blocksRetiredProgram;
    m.blocksRetiredErase = ft.blocksRetiredErase;
    m.failedIos = ns.failedIos;
    m.degradedDies =
        ftl_->blocks().deadPlanes() / cfg_.geometry.planesPerDie;

    // Parity / rebuild / soft-decode counters.
    m.reconstructedReads = ns.reconstructedReads;
    m.gcReadFailures = gc_->stats().migrationReadFailures;
    m.softDecodeInvocations = decoder_.stats.invocations;
    m.softDecodeFailures = decoder_.stats.failures;
    m.softDecodeBusyTime = decoder_.stats.busyTime;
    m.softDecodeStallTime = decoder_.stats.stallTime;
    if (parity_) {
        const ParityEngineStats &ps = parity_->stats();
        m.parityUpdates = ps.parityUpdates;
        m.parityFullStripeCloses = ps.fullStripeCloses;
        m.parityPartialCloses = ps.partialCloses + ps.forcedCloses;
        m.parityRmwReads = ps.rmwReads;
        m.reconstructionReads = ps.reconstructionReads;
        m.rebuildPagesTotal = ps.rebuildPagesTotal;
        m.rebuildPagesRebuilt = ps.rebuildPagesRebuilt;
    }

    // Per-stream slices (multi-queue runs only): counters come from
    // the NVMHC's per-stream stats, latency shape from the completion
    // series bucketed by stream id.
    if (!streamCfgs_.empty()) {
        m.streams.resize(streamCfgs_.size());
        std::vector<std::vector<Tick>> lat(streamCfgs_.size());
        for (const auto &res : results_) {
            if (res.streamId < lat.size())
                lat[res.streamId].push_back(res.latency());
        }
        for (std::size_t sid = 0; sid < streamCfgs_.size(); ++sid) {
            StreamMetrics &sm = m.streams[sid];
            sm.name = streamCfgs_[sid].name;
            const NvmhcStats &ss =
                nvmhc_->streamStats(static_cast<std::uint32_t>(sid));
            sm.iosSubmitted = ss.iosSubmitted;
            sm.iosCompleted = ss.iosCompleted;
            sm.bytesRead = ss.bytesRead;
            sm.bytesWritten = ss.bytesWritten;
            sm.queueStallTime = ss.queueStallTime;
            if (seconds > 0.0) {
                sm.bandwidthKBps =
                    static_cast<double>(sm.bytesRead +
                                        sm.bytesWritten) /
                    1024.0 / seconds;
                sm.iops =
                    static_cast<double>(sm.iosCompleted) / seconds;
            }
            summarizeLatency(lat[sid], sm);
        }
    }
    return m;
}

} // namespace spk
