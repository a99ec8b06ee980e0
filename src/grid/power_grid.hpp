#pragma once
// On-chip power delivery network model.
//
// The base model is a 2D resistive mesh (one node per tile of the die),
// each node carrying a decoupling capacitance to ground, with VDD pads
// attached through a pad impedance at regular array positions (C4-bump
// style). Circuit blocks draw time-varying currents from the nodes they
// cover.
//
// Two optional refinements bring the model closer to a real PDN:
//
//  * two-layer mode — a coarser, lower-resistance top metal mesh overlays
//    the device-layer mesh, connected by vias; the pads then attach to the
//    top layer. Top-layer nodes are appended after the nx*ny device nodes,
//    so all device-layer geometry (floorplans, sensors) is unaffected.
//  * package inductance — each pad gets a series inductance, adding the
//    L·di/dt first-droop physics the voltage-emergency literature focuses
//    on. The DC formulation is unchanged (an inductor is a DC short); the
//    transient engine handles the extra state (see transient.hpp).
//
// Electrical formulation (node voltages v, VDD rail explicit on the RHS):
//   G v = g_pad ∘ VDD − i_load          (DC)
// where G includes mesh/via conductances and each pad's DC conductance on
// its node's diagonal; the system is symmetric positive definite.

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/vector.hpp"
#include "sparse/csr.hpp"

namespace vmap::grid {

/// C4 pad lattice geometry. Square is the classic regular array; the
/// triangular and hexagonal variants follow Carroll & Ortega-Cerdà's
/// analysis of optimal pad arrangements: triangular staggers alternate pad
/// rows by half a spacing (the densest circle packing), hexagonal keeps the
/// stagger but compresses the row pitch to spacing·√3/2 so pads sit on a
/// honeycomb lattice.
enum class PadArrangement {
  kSquare = 0,
  kTriangular = 1,
  kHexagonal = 2,
};

/// Stable lower-case name ("square", "triangular", "hexagonal").
const char* pad_arrangement_name(PadArrangement arrangement);

/// Geometry and electrical parameters of the grid.
struct GridConfig {
  std::size_t nx = 64;  ///< device-layer nodes along x
  std::size_t ny = 64;  ///< device-layer nodes along y
  double pitch_um = 120.0;            ///< tile pitch (µm), for geometry only
  double segment_resistance = 0.25;   ///< Ω per device-layer mesh segment
  double node_capacitance = 80e-12;   ///< F of decap per device node
  double pad_resistance = 0.02;       ///< Ω per VDD pad
  double pad_inductance = 0.0;        ///< H per VDD pad (0 = ideal pad)
  double vdd = 1.0;                   ///< V
  std::size_t pad_spacing = 12;       ///< pads every this many tiles
  /// Pad lattice shape (square keeps the historic regular array).
  PadArrangement pad_arrangement = PadArrangement::kSquare;

  // Optional top-metal layer.
  bool two_layer = false;
  std::size_t top_pitch = 4;              ///< top node every this many tiles
  double top_segment_resistance = 0.05;   ///< Ω per top-layer segment
  double via_resistance = 0.10;           ///< Ω per inter-layer via
  double top_node_capacitance = 10e-12;   ///< F per top-layer node

  /// Device-layer node count.
  std::size_t device_nodes() const { return nx * ny; }
};

/// Immutable power grid: topology, conductances, pads.
class PowerGrid {
 public:
  /// Builds the mesh(es) and pad array from the configuration.
  explicit PowerGrid(const GridConfig& config);

  const GridConfig& config() const { return config_; }
  /// Total electrical nodes (device layer plus, if enabled, top layer).
  std::size_t node_count() const { return total_nodes_; }
  /// Device-layer nodes only — the nodes blocks and sensors live on.
  std::size_t device_node_count() const { return config_.device_nodes(); }

  /// Device-layer node id for tile (x, y); row-major.
  std::size_t node_id(std::size_t x, std::size_t y) const;
  /// Tile coordinates of a device-layer node id.
  std::pair<std::size_t, std::size_t> node_xy(std::size_t id) const;
  /// Physical position (µm) of any node (tile center; top-layer nodes sit
  /// over their footprint position).
  std::pair<double, double> node_position_um(std::size_t id) const;

  /// Euclidean distance between two nodes (µm), ignoring layer.
  double distance_um(std::size_t a, std::size_t b) const;

  /// True when the top-metal layer is present.
  bool has_top_layer() const { return config_.two_layer; }
  /// Top-layer node ids (empty in single-layer mode).
  const std::vector<std::size_t>& top_nodes() const { return top_nodes_; }

  /// Pad node ids (ascending; top-layer nodes in two-layer mode).
  const std::vector<std::size_t>& pad_nodes() const { return pad_nodes_; }
  bool is_pad(std::size_t id) const;

  /// Conductance matrix G (meshes + vias + pad DC conductances); SPD.
  const sparse::CsrMatrix& conductance() const { return g_; }

  /// Per-node capacitance to ground (F).
  const linalg::Vector& capacitance() const { return cap_; }

  /// RHS contribution of the pads: g_pad * VDD at pad nodes, 0 elsewhere.
  const linalg::Vector& pad_injection() const { return pad_injection_; }

  /// Solves the DC operating point for the given per-node load currents
  /// (A, drawn from node to ground; size may be device_node_count() —
  /// zero-extended — or node_count()). With zero load every node sits at
  /// VDD.
  linalg::Vector dc_solve(const linalg::Vector& load_currents) const;

 private:
  GridConfig config_;
  std::size_t total_nodes_ = 0;
  std::vector<std::size_t> top_nodes_;
  std::vector<std::size_t> pad_nodes_;
  std::vector<bool> pad_mask_;
  sparse::CsrMatrix g_;
  linalg::Vector cap_;
  linalg::Vector pad_injection_;
};

}  // namespace vmap::grid
