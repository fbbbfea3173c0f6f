#include "controller/flash_backend.hh"

#include "sim/logging.hh"

namespace spk
{

FlashBackend::FlashBackend(const FlashGeometry &geo,
                           const Controllers &controllers,
                           Slab<MemoryRequest> &arena)
    : geo_(geo), arena_(arena)
{
    if (controllers.size() != geo_.numChannels)
        fatal("FlashBackend: need one flash controller per channel");
    const std::uint32_t n_chips = geo_.numChips();
    routes_.reserve(n_chips);
    for (std::uint32_t chip = 0; chip < n_chips; ++chip) {
        routes_.push_back({controllers[geo_.channelOfChip(chip)].get(),
                           geo_.chipOffsetOfChip(chip)});
    }
}

MemoryRequest *
FlashBackend::issue(RequestOwner owner, std::uint64_t id,
                    std::uint32_t job, FlashOp op, Ppn ppn)
{
    MemoryRequest *req = arena_.acquire();
    req->id = id;
    req->owner = owner;
    req->job = job;
    req->op = op;
    place(*req, ppn);
    req->composed = true;
    commit(req, /*front=*/true);
    return req;
}

} // namespace spk
