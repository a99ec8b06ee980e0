#include "grid/power_grid.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/skyline_cholesky.hpp"
#include "util/assert.hpp"

namespace vmap::grid {

const char* pad_arrangement_name(PadArrangement arrangement) {
  switch (arrangement) {
    case PadArrangement::kSquare: return "square";
    case PadArrangement::kTriangular: return "triangular";
    case PadArrangement::kHexagonal: return "hexagonal";
  }
  return "?";
}

PowerGrid::PowerGrid(const GridConfig& config) : config_(config) {
  VMAP_REQUIRE(config_.nx >= 2 && config_.ny >= 2,
               "grid needs at least 2x2 nodes");
  VMAP_REQUIRE(config_.segment_resistance > 0.0,
               "segment resistance must be positive");
  VMAP_REQUIRE(config_.pad_resistance > 0.0,
               "pad resistance must be positive");
  VMAP_REQUIRE(config_.pad_inductance >= 0.0,
               "pad inductance must be non-negative");
  VMAP_REQUIRE(config_.node_capacitance > 0.0,
               "node capacitance must be positive");
  VMAP_REQUIRE(config_.pad_spacing >= 1, "pad spacing must be >= 1");

  const std::size_t device = config_.device_nodes();

  // Top-layer lattice: one node every top_pitch tiles (offset half a pitch
  // in from the edge), appended after the device nodes.
  std::size_t top_nx = 0, top_ny = 0, top_half = 0;
  if (config_.two_layer) {
    VMAP_REQUIRE(config_.top_pitch >= 1, "top pitch must be >= 1");
    VMAP_REQUIRE(config_.top_segment_resistance > 0.0 &&
                     config_.via_resistance > 0.0 &&
                     config_.top_node_capacitance > 0.0,
                 "top-layer parameters must be positive");
    top_half = config_.top_pitch / 2;
    top_nx = (config_.nx - top_half + config_.top_pitch - 1) /
             config_.top_pitch;
    top_ny = (config_.ny - top_half + config_.top_pitch - 1) /
             config_.top_pitch;
    VMAP_REQUIRE(top_nx >= 1 && top_ny >= 1,
                 "top pitch leaves no top-layer node");
  }
  total_nodes_ = device + top_nx * top_ny;

  // Map a top-lattice coordinate to its node id and its device footprint.
  auto top_id = [&](std::size_t tx, std::size_t ty) {
    return device + ty * top_nx + tx;
  };
  auto top_footprint = [&](std::size_t tx, std::size_t ty) {
    const std::size_t x = std::min(top_half + tx * config_.top_pitch,
                                   config_.nx - 1);
    const std::size_t y = std::min(top_half + ty * config_.top_pitch,
                                   config_.ny - 1);
    return y * config_.nx + x;
  };

  // Pad array: a lattice with a half-spacing inset. Square is the classic
  // regular array; triangular staggers every other row by half a spacing;
  // hexagonal additionally compresses the row pitch to spacing·√3/2
  // (rounded to a tile, min 1). In two-layer mode pads attach to the
  // nearest top-layer node.
  pad_mask_.assign(total_nodes_, false);
  const std::size_t half = config_.pad_spacing / 2;
  const bool staggered =
      config_.pad_arrangement != PadArrangement::kSquare;
  std::size_t row_pitch = config_.pad_spacing;
  if (config_.pad_arrangement == PadArrangement::kHexagonal) {
    row_pitch = static_cast<std::size_t>(
        static_cast<double>(config_.pad_spacing) * 0.8660254037844386 + 0.5);
    if (row_pitch == 0) row_pitch = 1;
  }
  std::size_t row = 0;
  for (std::size_t y = half; y < config_.ny; y += row_pitch, ++row) {
    const std::size_t x_offset =
        (staggered && row % 2 == 1) ? config_.pad_spacing / 2 : 0;
    for (std::size_t x0 = half; x0 < config_.nx; x0 += config_.pad_spacing) {
      const std::size_t x = x0 + x_offset;
      if (x >= config_.nx) continue;
      std::size_t id;
      if (config_.two_layer) {
        const std::size_t tx = std::min(
            top_nx - 1, (x >= top_half ? (x - top_half) / config_.top_pitch
                                       : 0));
        const std::size_t ty = std::min(
            top_ny - 1, (y >= top_half ? (y - top_half) / config_.top_pitch
                                       : 0));
        id = top_id(tx, ty);
      } else {
        id = node_id(x, y);
      }
      if (!pad_mask_[id]) {
        pad_mask_[id] = true;
        pad_nodes_.push_back(id);
      }
    }
  }
  VMAP_REQUIRE(!pad_nodes_.empty(),
               "pad spacing leaves the grid without any VDD pad");

  // Stamp the conductance matrix.
  const double g_seg = 1.0 / config_.segment_resistance;
  const double g_pad = 1.0 / config_.pad_resistance;
  sparse::TripletBuilder builder(total_nodes_, total_nodes_);
  auto stamp_branch = [&builder](std::size_t a, std::size_t b, double g) {
    builder.add(a, a, g);
    builder.add(b, b, g);
    builder.add(a, b, -g);
    builder.add(b, a, -g);
  };
  for (std::size_t y = 0; y < config_.ny; ++y) {
    for (std::size_t x = 0; x < config_.nx; ++x) {
      const std::size_t id = node_id(x, y);
      if (x + 1 < config_.nx) stamp_branch(id, node_id(x + 1, y), g_seg);
      if (y + 1 < config_.ny) stamp_branch(id, node_id(x, y + 1), g_seg);
    }
  }
  if (config_.two_layer) {
    const double g_top = 1.0 / config_.top_segment_resistance;
    const double g_via = 1.0 / config_.via_resistance;
    for (std::size_t ty = 0; ty < top_ny; ++ty) {
      for (std::size_t tx = 0; tx < top_nx; ++tx) {
        const std::size_t id = top_id(tx, ty);
        if (tx + 1 < top_nx) stamp_branch(id, top_id(tx + 1, ty), g_top);
        if (ty + 1 < top_ny) stamp_branch(id, top_id(tx, ty + 1), g_top);
        stamp_branch(id, top_footprint(tx, ty), g_via);
        top_nodes_.push_back(id);
      }
    }
  }
  for (std::size_t id : pad_nodes_) builder.add(id, id, g_pad);
  g_ = builder.build();

  cap_ = linalg::Vector(total_nodes_, config_.node_capacitance);
  for (std::size_t id : top_nodes_) cap_[id] = config_.top_node_capacitance;

  pad_injection_ = linalg::Vector(total_nodes_);
  for (std::size_t id : pad_nodes_)
    pad_injection_[id] = g_pad * config_.vdd;
}

std::size_t PowerGrid::node_id(std::size_t x, std::size_t y) const {
  VMAP_REQUIRE(x < config_.nx && y < config_.ny, "tile out of range");
  return y * config_.nx + x;
}

std::pair<std::size_t, std::size_t> PowerGrid::node_xy(std::size_t id) const {
  VMAP_REQUIRE(id < device_node_count(),
               "node id out of the device layer's range");
  return {id % config_.nx, id / config_.nx};
}

std::pair<double, double> PowerGrid::node_position_um(std::size_t id) const {
  VMAP_REQUIRE(id < total_nodes_, "node id out of range");
  if (id < device_node_count()) {
    const std::size_t x = id % config_.nx;
    const std::size_t y = id / config_.nx;
    return {(static_cast<double>(x) + 0.5) * config_.pitch_um,
            (static_cast<double>(y) + 0.5) * config_.pitch_um};
  }
  // Top-layer node: position of its device footprint column.
  const std::size_t top_half = config_.top_pitch / 2;
  const std::size_t top_nx =
      (config_.nx - top_half + config_.top_pitch - 1) / config_.top_pitch;
  const std::size_t t = id - device_node_count();
  const std::size_t tx = t % top_nx;
  const std::size_t ty = t / top_nx;
  const std::size_t x =
      std::min(top_half + tx * config_.top_pitch, config_.nx - 1);
  const std::size_t y =
      std::min(top_half + ty * config_.top_pitch, config_.ny - 1);
  return {(static_cast<double>(x) + 0.5) * config_.pitch_um,
          (static_cast<double>(y) + 0.5) * config_.pitch_um};
}

double PowerGrid::distance_um(std::size_t a, std::size_t b) const {
  auto [xa, ya] = node_position_um(a);
  auto [xb, yb] = node_position_um(b);
  return std::hypot(xa - xb, ya - yb);
}

bool PowerGrid::is_pad(std::size_t id) const {
  VMAP_REQUIRE(id < total_nodes_, "node id out of range");
  return pad_mask_[id];
}

linalg::Vector PowerGrid::dc_solve(
    const linalg::Vector& load_currents) const {
  VMAP_REQUIRE(load_currents.size() == node_count() ||
                   load_currents.size() == device_node_count(),
               "load current vector size mismatch");
  linalg::Vector rhs = pad_injection_;
  for (std::size_t i = 0; i < load_currents.size(); ++i)
    rhs[i] -= load_currents[i];
  sparse::SkylineCholesky factor(g_);
  return factor.solve(rhs);
}

}  // namespace vmap::grid
