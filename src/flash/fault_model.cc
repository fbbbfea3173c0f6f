#include "flash/fault_model.hh"

#include "sim/logging.hh"

namespace spk
{

namespace
{

/** splitmix64 finalizer; full-avalanche 64-bit mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Salt values keep decision families statistically independent. */
constexpr std::uint64_t kSaltRead = 0x52454144ull;    // "READ"
constexpr std::uint64_t kSaltProgram = 0x50524f47ull; // "PROG"
constexpr std::uint64_t kSaltErase = 0x45525345ull;   // "ERSE"
constexpr std::uint64_t kSaltHard = 0x48415244ull;    // "HARD"
constexpr std::uint64_t kSaltSoft = 0x534f4654ull;    // "SOFT"

} // namespace

void
FaultConfig::validate() const
{
    const auto checkRate = [](double r, const char *name) {
        if (r < 0.0 || r > 1.0)
            fatal(std::string("FaultConfig: ") + name +
                  " must be in [0, 1]");
    };
    checkRate(readTransientRate, "readTransientRate");
    checkRate(retryStepFailRate, "retryStepFailRate");
    checkRate(readHardRate, "readHardRate");
    checkRate(programFailRate, "programFailRate");
    checkRate(eraseFailRate, "eraseFailRate");
    checkRate(softDecodeFailRate, "softDecodeFailRate");
    if (retryLadderSteps > kMaxRetrySteps)
        fatal("FaultConfig: retryLadderSteps exceeds kMaxRetrySteps");
    if (softDecodeEnabled && softDecodeLatency == 0)
        fatal("FaultConfig: softDecodeLatency must be non-zero when "
              "soft decode is enabled");
}

FaultModel::FaultModel(const FaultConfig &cfg, std::uint64_t seed,
                       const FlashGeometry &geo)
    : cfg_(cfg), geo_(geo), seed_(seed), enabled_(cfg.enabled())
{
    cfg_.validate();
}

double
FaultModel::uniform(std::uint64_t a, std::uint64_t b,
                    std::uint64_t salt) const
{
    std::uint64_t h = mix64(seed_ ^ mix64(salt));
    h = mix64(h ^ mix64(a));
    h = mix64(h ^ mix64(b));
    // 53 mantissa bits -> uniform double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

ReadOutcome
FaultModel::readAttempt(Ppn ppn, std::uint64_t op_seq,
                        std::uint32_t attempt, Tick now) const
{
    if (!enabled_)
        return ReadOutcome::Ok;
    if (dieDead(ppn, now))
        return ReadOutcome::Uncorrectable;

    // A hard-failed page keeps failing every step of the ladder; the
    // controller only learns that once the ladder is exhausted.
    const bool hard =
        cfg_.readHardRate > 0.0 &&
        uniform(ppn, op_seq, kSaltHard) < cfg_.readHardRate;
    if (hard) {
        return attempt < cfg_.retryLadderSteps ? ReadOutcome::Retry
                                               : ReadOutcome::Uncorrectable;
    }

    const double rate =
        attempt == 0 ? cfg_.readTransientRate : cfg_.retryStepFailRate;
    const bool fails =
        rate > 0.0 &&
        uniform(ppn, op_seq ^ (std::uint64_t{attempt} << 56),
                kSaltRead) < rate;
    if (!fails)
        return ReadOutcome::Ok;
    return attempt < cfg_.retryLadderSteps ? ReadOutcome::Retry
                                           : ReadOutcome::Uncorrectable;
}

bool
FaultModel::programFails(Ppn ppn, std::uint64_t op_seq, Tick now) const
{
    if (!enabled_)
        return false;
    if (dieDead(ppn, now))
        return true;
    return cfg_.programFailRate > 0.0 &&
           uniform(ppn, op_seq, kSaltProgram) < cfg_.programFailRate;
}

bool
FaultModel::eraseFails(Ppn block_base_ppn, std::uint32_t erase_count) const
{
    if (!enabled_ || cfg_.eraseFailRate <= 0.0)
        return false;
    return uniform(block_base_ppn, erase_count, kSaltErase) <
           cfg_.eraseFailRate;
}

bool
FaultModel::dieDead(Ppn ppn, Tick now) const
{
    if (cfg_.dieFailTick == 0 || now < cfg_.dieFailTick)
        return false;
    if (dieRevivedTick_ != 0 && now >= dieRevivedTick_)
        return false;
    const PhysAddr addr = geo_.decompose(ppn);
    return addr.chip == cfg_.dieFailChip && addr.die == cfg_.dieFailDie;
}

bool
FaultModel::softDecodeFails(Ppn ppn, std::uint64_t op_seq) const
{
    return cfg_.softDecodeFailRate > 0.0 &&
           uniform(ppn, op_seq, kSaltSoft) < cfg_.softDecodeFailRate;
}

Tick
FaultModel::softDecodeCost(std::uint32_t attempt,
                           std::uint32_t page_bytes) const
{
    // One 2KiB codeword decodes in softDecodeLatency; bigger pages
    // stream proportionally more codewords, and each retry step the
    // read burned first degrades the soft information by stepPct %.
    const std::uint64_t codewords =
        (std::uint64_t{page_bytes} + 2047) / 2048;
    const std::uint64_t base = cfg_.softDecodeLatency * codewords;
    return base * (100 + std::uint64_t{attempt} * cfg_.softDecodeStepPct) /
           100;
}

Tick
FaultModel::senseLatency(std::uint32_t attempt, Tick base) const
{
    // Step k senses at base * (1 + stepPct/100)^k, i.e. each retry is
    // retryLatencyStepPct % slower than the previous attempt.
    Tick lat = base;
    for (std::uint32_t k = 0; k < attempt; ++k)
        lat += lat * cfg_.retryLatencyStepPct / 100;
    return lat;
}

} // namespace spk
