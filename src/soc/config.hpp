/**
 * @file
 * SoC tile-grid configurations.
 *
 * Presets reproduce the three SoCs the paper evaluates (Fig. 12 and
 * Fig. 15): the 3x3 autonomous-vehicle SoC (3 FFT, 2 Viterbi, 1 NVDLA
 * plus CPU/MEM/IO — 6 managed accelerators), the 4x4 computer-vision
 * SoC (4 GEMM, 5 Conv2D, 4 Vision plus CPU/MEM/IO — 13 managed
 * accelerators), and the 6x6 silicon prototype whose 10-tile PM cluster
 * hosts BlitzCoin alongside unmanaged accelerators, CPUs, scratchpads
 * and memory tiles.
 */

#ifndef BLITZ_SOC_CONFIG_HPP
#define BLITZ_SOC_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "noc/topology.hpp"
#include "power/pf_curve.hpp"

namespace blitz::soc {

/** Role of a tile in the grid. */
enum class TileType : std::uint8_t
{
    Empty,      ///< unused grid position
    Cpu,        ///< RISC-V CVA6 application core (runs the dispatcher)
    Accel,      ///< loosely-coupled accelerator
    Mem,        ///< LLC slice + DRAM channel
    Io,         ///< auxiliary tile (UART, Ethernet, boot ROM)
    Scratchpad, ///< on-chip SRAM tile
};

const char *tileTypeName(TileType t);

/** Static description of one tile. */
struct TileSpec
{
    TileType type = TileType::Empty;
    std::string name;
    /** Power curve; required iff type == Accel. */
    const power::PfCurve *curve = nullptr;
    /**
     * Whether the tile participates in power management. The silicon
     * prototype's "FFT No-PM" baseline tile sets this false.
     */
    bool pmEnabled = true;
};

/** Full SoC description. */
struct SocConfig
{
    std::string name;
    int width = 0;
    int height = 0;
    std::vector<TileSpec> tiles; ///< row-major, size width*height
    noc::NodeId cpuTile = 0;     ///< controller seat for central schemes

    std::size_t
    size() const
    {
        return tiles.size();
    }

    const TileSpec &
    tile(noc::NodeId id) const
    {
        return tiles.at(id);
    }

    /** Node ids of the power-managed accelerator tiles. */
    std::vector<noc::NodeId> managedAccelerators() const;

    /** Node ids of all accelerator tiles (managed or not). */
    std::vector<noc::NodeId> allAccelerators() const;

    /** Peak power per node id (0 for non-accelerator tiles), mW. */
    std::vector<double> pMaxByNode() const;

    /** Sum of peak powers over managed accelerators (mW). */
    double totalManagedPMax() const;

    /** Node id of the tile with the given name; fatal() if absent. */
    noc::NodeId findTile(const std::string &tileName) const;

    /** Consistency checks; fatal() on malformed configs. */
    void validate() const;
};

/** The 3x3 connected-autonomous-vehicle SoC (Fig. 12 left). */
SocConfig make3x3AvSoc();

/** The 4x4 computer-vision SoC (Fig. 12 right). */
SocConfig make4x4VisionSoc();

/**
 * The 6x6 silicon prototype (Fig. 15): a 10-tile PM cluster with
 * BlitzCoin (1 NVDLA, 3 FFT, 6 Viterbi — the 7-accelerator workload
 * uses a subset), an FFT tile without PM as the overhead baseline,
 * 4 CVA6 cores, 4 memory tiles, 4 scratchpads, IO, and other
 * unmanaged accelerators.
 */
SocConfig make6x6SiliconSoc();

/**
 * Synthetic d x d SoC of homogeneous managed accelerators, for
 * scalability sweeps beyond the paper's fabricated sizes.
 */
SocConfig makeSyntheticSoc(int d, const power::PfCurve &curve);

} // namespace blitz::soc

#endif // BLITZ_SOC_CONFIG_HPP
