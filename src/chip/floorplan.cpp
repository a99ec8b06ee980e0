#include "chip/floorplan.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace vmap::chip {

const char* unit_name(UnitKind kind) {
  switch (kind) {
    case UnitKind::kFetch: return "IFU";
    case UnitKind::kDecode: return "IDU";
    case UnitKind::kExecute: return "EXE";
    case UnitKind::kLoadStore: return "LSU";
    case UnitKind::kFloatingPoint: return "FPU";
    case UnitKind::kL2Cache: return "L2";
    case UnitKind::kMisc: return "MISC";
  }
  return "?";
}

namespace {

/// The 30-block core template: unit kinds in column-major cell order, with
/// per-unit nominal power weights. The execution unit is the densest and
/// hottest — the paper's Fig. 3 singles it out as the worst-noise unit.
struct UnitRun {
  UnitKind kind;
  std::size_t count;
  double power_weight;
  const char* short_name;
};

constexpr std::array<UnitRun, 7> kCoreTemplate = {{
    {UnitKind::kFetch, 4, 1.00, "ifu"},
    {UnitKind::kDecode, 4, 0.90, "idu"},
    {UnitKind::kExecute, 6, 2.20, "exe"},
    {UnitKind::kLoadStore, 5, 1.50, "lsu"},
    {UnitKind::kFloatingPoint, 4, 1.70, "fpu"},
    {UnitKind::kL2Cache, 4, 0.70, "l2"},
    {UnitKind::kMisc, 3, 0.50, "misc"},
}};

constexpr std::size_t kCellCols = 6;
constexpr std::size_t kCellRows = 5;

char unit_letter(UnitKind kind) {
  switch (kind) {
    case UnitKind::kFetch: return 'F';
    case UnitKind::kDecode: return 'D';
    case UnitKind::kExecute: return 'E';
    case UnitKind::kLoadStore: return 'L';
    case UnitKind::kFloatingPoint: return 'P';
    case UnitKind::kL2Cache: return '$';
    case UnitKind::kMisc: return 'M';
  }
  return '?';
}

/// Splits `extent` into `parts` contiguous spans, distributing the
/// remainder over the first spans. Returns the cut positions (size parts+1).
std::vector<std::size_t> split_extent(std::size_t begin, std::size_t extent,
                                      std::size_t parts) {
  std::vector<std::size_t> cuts(parts + 1, begin);
  const std::size_t base = extent / parts;
  std::size_t rem = extent % parts;
  for (std::size_t i = 0; i < parts; ++i) {
    cuts[i + 1] = cuts[i] + base + (i < rem ? 1 : 0);
  }
  return cuts;
}

}  // namespace

Floorplan::Floorplan(const grid::PowerGrid& grid,
                     const FloorplanConfig& config)
    : grid_(grid), config_(config) {
  VMAP_REQUIRE(config_.cores_x >= 1 && config_.cores_y >= 1,
               "need at least one core");
  const auto& gc = grid_.config();
  const std::size_t slot_w = gc.nx / config_.cores_x;
  const std::size_t slot_h = gc.ny / config_.cores_y;
  // Each cell must fit a >=1-tile block behind a 1-tile channel, so the core
  // region needs at least 2 tiles per cell column/row.
  VMAP_REQUIRE(slot_w >= 2 * config_.core_margin + 2 * kCellCols,
               "grid too narrow for the core template");
  VMAP_REQUIRE(slot_h >= 2 * config_.core_margin + 2 * kCellRows,
               "grid too short for the core template");

  node_block_.assign(grid_.device_node_count(), -1);

  for (std::size_t cy = 0; cy < config_.cores_y; ++cy) {
    for (std::size_t cx = 0; cx < config_.cores_x; ++cx) {
      const std::size_t core = cy * config_.cores_x + cx;
      Rect region;
      region.x0 = cx * slot_w + config_.core_margin;
      region.x1 = (cx + 1) * slot_w - config_.core_margin;
      region.y0 = cy * slot_h + config_.core_margin;
      region.y1 = (cy + 1) * slot_h - config_.core_margin;
      instantiate_core(core, region);
    }
  }

  for (std::size_t node = 0; node < grid_.device_node_count(); ++node) {
    if (node_block_[node] >= 0)
      fa_nodes_.push_back(node);
    else
      ba_nodes_.push_back(node);
  }
  VMAP_ASSERT(!fa_nodes_.empty() && !ba_nodes_.empty(),
              "floorplan must leave both FA and BA nonempty");
}

void Floorplan::instantiate_core(std::size_t core, const Rect& region) {
  const auto col_cuts =
      split_extent(region.x0, region.x1 - region.x0, kCellCols);
  const auto row_cuts =
      split_extent(region.y0, region.y1 - region.y0, kCellRows);

  // Expand the template into one unit kind per cell (column-major).
  struct CellUnit {
    UnitKind kind;
    double weight;
    const char* name;
    std::size_t index_in_unit;
  };
  std::vector<CellUnit> cells;
  cells.reserve(kCellCols * kCellRows);
  for (const auto& run : kCoreTemplate)
    for (std::size_t i = 0; i < run.count; ++i)
      cells.push_back({run.kind, run.power_weight, run.short_name, i});
  VMAP_ASSERT(cells.size() == kCellCols * kCellRows,
              "core template must fill the cell lattice exactly");

  for (std::size_t col = 0; col < kCellCols; ++col) {
    for (std::size_t row = 0; row < kCellRows; ++row) {
      const CellUnit& cell = cells[col * kCellRows + row];
      Block block;
      block.id = blocks_.size();
      block.core = core;
      block.unit = cell.kind;
      block.power_weight = cell.weight;
      block.name = "c" + std::to_string(core) + "." + cell.name + "." +
                   std::to_string(cell.index_in_unit);
      // Leave a 1-tile BA channel on the cell's left and top edges; the
      // neighbouring cell's channel separates right/bottom sides.
      block.x0 = col_cuts[col] + 1;
      block.x1 = col_cuts[col + 1];
      block.y0 = row_cuts[row] + 1;
      block.y1 = row_cuts[row + 1];
      VMAP_ASSERT(block.x0 < block.x1 && block.y0 < block.y1,
                  "core cell too small for a block");

      for (std::size_t y = block.y0; y < block.y1; ++y) {
        for (std::size_t x = block.x0; x < block.x1; ++x) {
          const std::size_t node = grid_.node_id(x, y);
          VMAP_ASSERT(node_block_[node] < 0, "blocks must not overlap");
          node_block_[node] = static_cast<std::int32_t>(block.id);
          block.nodes.push_back(node);
        }
      }
      blocks_.push_back(std::move(block));
    }
  }
}

const Block& Floorplan::block(std::size_t id) const {
  VMAP_REQUIRE(id < blocks_.size(), "block id out of range");
  return blocks_[id];
}

std::vector<std::size_t> Floorplan::block_ids_in_core(std::size_t core) const {
  VMAP_REQUIRE(core < core_count(), "core index out of range");
  std::vector<std::size_t> ids;
  for (const auto& b : blocks_)
    if (b.core == core) ids.push_back(b.id);
  return ids;
}

bool Floorplan::is_fa_node(std::size_t node) const {
  VMAP_REQUIRE(node < grid_.node_count(), "node id out of range");
  // Top-layer (metal) nodes carry no circuits: never part of the FA.
  if (node >= grid_.device_node_count()) return false;
  return node_block_[node] >= 0;
}

std::optional<std::size_t> Floorplan::block_of_node(std::size_t node) const {
  VMAP_REQUIRE(node < grid_.node_count(), "node id out of range");
  if (node >= grid_.device_node_count()) return std::nullopt;
  if (node_block_[node] < 0) return std::nullopt;
  return static_cast<std::size_t>(node_block_[node]);
}

std::vector<std::size_t> Floorplan::ba_candidates_for_core(
    std::size_t core) const {
  VMAP_REQUIRE(core < core_count(), "core index out of range");
  const auto& gc = grid_.config();
  const std::size_t slot_w = gc.nx / config_.cores_x;
  const std::size_t slot_h = gc.ny / config_.cores_y;
  const std::size_t cx = core % config_.cores_x;
  const std::size_t cy = core / config_.cores_x;
  const std::size_t x0 = cx * slot_w;
  const std::size_t x1 = (cx + 1) * slot_w;
  const std::size_t y0 = cy * slot_h;
  const std::size_t y1 = (cy + 1) * slot_h;

  std::vector<std::size_t> candidates;
  for (std::size_t y = y0; y < y1; ++y) {
    for (std::size_t x = x0; x < x1; ++x) {
      const std::size_t node = grid_.node_id(x, y);
      if (node_block_[node] < 0) candidates.push_back(node);
    }
  }
  return candidates;
}

Floorplan::Rect Floorplan::core_region(std::size_t core) const {
  VMAP_REQUIRE(core < core_count(), "core index out of range");
  const auto& gc = grid_.config();
  const std::size_t slot_w = gc.nx / config_.cores_x;
  const std::size_t slot_h = gc.ny / config_.cores_y;
  const std::size_t cx = core % config_.cores_x;
  const std::size_t cy = core / config_.cores_x;
  Rect r;
  r.x0 = cx * slot_w + config_.core_margin;
  r.x1 = (cx + 1) * slot_w - config_.core_margin;
  r.y0 = cy * slot_h + config_.core_margin;
  r.y1 = (cy + 1) * slot_h - config_.core_margin;
  return r;
}

std::string Floorplan::ascii_map(
    const std::vector<std::size_t>& marked) const {
  const auto& gc = grid_.config();
  std::vector<char> canvas(grid_.device_node_count(), '.');
  for (const auto& b : blocks_)
    for (std::size_t node : b.nodes) canvas[node] = unit_letter(b.unit);
  for (std::size_t node : marked) {
    VMAP_REQUIRE(node < canvas.size(), "marked node out of range");
    canvas[node] = '*';
  }
  std::string out;
  out.reserve((gc.nx + 1) * gc.ny);
  for (std::size_t y = 0; y < gc.ny; ++y) {
    out.append(canvas.begin() + static_cast<std::ptrdiff_t>(y * gc.nx),
               canvas.begin() + static_cast<std::ptrdiff_t>((y + 1) * gc.nx));
    out.push_back('\n');
  }
  return out;
}

}  // namespace vmap::chip
