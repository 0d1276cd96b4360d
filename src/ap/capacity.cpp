#include "ap/capacity.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace crispr::ap {

Placement
placeMachines(const std::vector<MachineStats> &machines,
              const ApDeviceSpec &spec)
{
    Placement p;
    // Blocks are filled first-fit with whole automata; an automaton
    // larger than a block occupies ceil(s/256) dedicated blocks (the
    // routing matrix does not share split blocks with other automata).
    uint64_t open_block_free = 0; // free STEs in the currently open block
    for (const MachineStats &m : machines) {
        p.stes += m.stes;
        p.counters += m.counters;
        p.gates += m.gates;
        const uint64_t s = m.stes;
        if (s == 0)
            continue;
        if (s > spec.stesPerBlock) {
            p.blocksUsed += (s + spec.stesPerBlock - 1) / spec.stesPerBlock;
            // Spanning automata close the open block? No: unrelated
            // blocks remain usable; keep the open block as is.
            continue;
        }
        if (s <= open_block_free) {
            open_block_free -= s;
        } else {
            ++p.blocksUsed;
            open_block_free = spec.stesPerBlock - s;
        }
    }

    const uint64_t blocks_per_chip = spec.blocksPerChip;
    uint64_t chips_for_blocks =
        (p.blocksUsed + blocks_per_chip - 1) / blocks_per_chip;
    uint64_t chips_for_counters =
        spec.countersPerChip
            ? (p.counters + spec.countersPerChip - 1) / spec.countersPerChip
            : 0;
    uint64_t chips_for_gates =
        spec.gatesPerChip
            ? (p.gates + spec.gatesPerChip - 1) / spec.gatesPerChip
            : 0;
    const uint64_t min_chips = machines.empty() ? 0 : 1;
    uint64_t chips = std::max({chips_for_blocks, chips_for_counters,
                               chips_for_gates, min_chips});
    p.chipsUsed = static_cast<uint32_t>(
        std::min<uint64_t>(chips, UINT32_MAX));
    p.fits = chips <= spec.chipsPerBoard();
    p.passes = p.fits ? 1
                      : static_cast<uint32_t>(
                            (chips + spec.chipsPerBoard() - 1) /
                            spec.chipsPerBoard());
    p.utilization =
        p.blocksUsed
            ? static_cast<double>(p.stes) /
                  (static_cast<double>(p.blocksUsed) * spec.stesPerBlock)
            : 0.0;
    return p;
}

uint64_t
machinesPerBoard(const MachineStats &one, const ApDeviceSpec &spec)
{
    if (one.stes == 0)
        return 0;
    // Per block: how many copies fit (or how many blocks one copy needs).
    double copies_per_chip;
    if (one.stes <= spec.stesPerBlock) {
        const uint64_t per_block = spec.stesPerBlock / one.stes;
        copies_per_chip =
            static_cast<double>(per_block) * spec.blocksPerChip;
    } else {
        const uint64_t blocks =
            (one.stes + spec.stesPerBlock - 1) / spec.stesPerBlock;
        copies_per_chip =
            static_cast<double>(spec.blocksPerChip / blocks);
    }
    if (one.counters > 0) {
        copies_per_chip = std::min(
            copies_per_chip,
            static_cast<double>(spec.countersPerChip / one.counters));
    }
    if (one.gates > 0) {
        copies_per_chip = std::min(
            copies_per_chip,
            static_cast<double>(spec.gatesPerChip / one.gates));
    }
    return static_cast<uint64_t>(copies_per_chip) * spec.chipsPerBoard();
}

ApTimeBreakdown
estimateRun(uint64_t symbols, uint64_t report_events, uint32_t passes,
            const ApDeviceSpec &spec)
{
    CRISPR_ASSERT(passes >= 1);
    ApTimeBreakdown t;
    t.configureSeconds = spec.configureSeconds * passes;
    const double stream =
        static_cast<double>(symbols) / spec.clockHz;
    const double input_bw =
        static_cast<double>(symbols) / spec.inputBandwidth;
    t.kernelSeconds = std::max(stream, input_bw) * passes;
    // Each report event is a 64-bit (id, offset) record read back over
    // PCIe; drain overlaps the stream, only the tail is exposed.
    t.outputSeconds = static_cast<double>(report_events) * 8.0 / 1.5e9;
    return t;
}

} // namespace crispr::ap
