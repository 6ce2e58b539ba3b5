#include "host/slicer.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "sim/error.hpp"

namespace offramps::host {
namespace {

using gcode::Command;
using gcode::Program;

/// Incremental g-code builder tracking absolute-E accumulation.
class GcodeBuilder {
 public:
  explicit GcodeBuilder(const SliceProfile& profile) : profile_(profile) {}

  void raw(char letter, int code) { program_.push_back({letter, code, {}, {}}); }

  void cmd(char letter, int code,
           std::initializer_list<gcode::Param> params,
           const char* comment = "") {
    Command c;
    c.letter = letter;
    c.code = code;
    c.params.assign(params);
    c.comment = comment;
    program_.push_back(std::move(c));
  }

  void set_temp_and_wait() {
    if (profile_.bed_temp_c > 0.0) {
      cmd('M', 140, {{'S', profile_.bed_temp_c}}, "bed temp");
      cmd('M', 190, {{'S', profile_.bed_temp_c}}, "wait bed");
    }
    cmd('M', 104, {{'S', profile_.hotend_temp_c}}, "hotend temp");
    cmd('M', 109, {{'S', profile_.hotend_temp_c}}, "wait hotend");
  }

  void travel(double x, double y) {
    cmd('G', 0,
        {{'X', x}, {'Y', y}, {'F', profile_.travel_speed_mm_s * 60.0}});
    x_ = x;
    y_ = y;
  }

  void lift(double z) {
    cmd('G', 1, {{'Z', z}, {'F', profile_.z_speed_mm_s * 60.0}});
    z_ = z;
  }

  void extrude_to(double x, double y, double speed_mm_s) {
    const double len = std::hypot(x - x_, y - y_);
    e_ += len * profile_.e_per_mm();
    cmd('G', 1, {{'X', x}, {'Y', y}, {'E', e_}, {'F', speed_mm_s * 60.0}});
    x_ = x;
    y_ = y;
  }

  /// Extruding arc (G2 cw / G3 ccw) with center offset (i, j) and the
  /// given arc path length.
  void arc_to(bool clockwise, double x, double y, double i, double j,
              double arc_len_mm, double speed_mm_s) {
    e_ += arc_len_mm * profile_.e_per_mm();
    cmd('G', clockwise ? 2 : 3,
        {{'X', x}, {'Y', y}, {'I', i}, {'J', j}, {'E', e_},
         {'F', speed_mm_s * 60.0}});
    x_ = x;
    y_ = y;
  }

  void retract() {
    e_ -= profile_.retract_mm;
    cmd('G', 1, {{'E', e_}, {'F', profile_.retract_speed_mm_s * 60.0}},
        "retract");
  }

  void unretract() {
    e_ += profile_.retract_mm;
    cmd('G', 1, {{'E', e_}, {'F', profile_.retract_speed_mm_s * 60.0}},
        "unretract");
  }

  void reset_e() {
    cmd('G', 92, {{'E', 0.0}}, "reset extruder datum");
    e_ = 0.0;
  }

  void prime() {
    e_ += profile_.prime_e_mm;
    cmd('G', 1, {{'E', e_}, {'F', 300.0}}, "prime nozzle");
    reset_e();
  }

  void fan(double duty) {
    if (duty <= 0.0) {
      raw('M', 107);
    } else {
      cmd('M', 106, {{'S', std::min(duty, 1.0) * 255.0}});
    }
  }

  [[nodiscard]] double x() const { return x_; }
  [[nodiscard]] double y() const { return y_; }
  [[nodiscard]] double z() const { return z_; }

  Program take() { return std::move(program_); }

  void append(Program more) {
    for (auto& c : more) program_.push_back(std::move(c));
  }

 private:
  const SliceProfile& profile_;
  Program program_;
  double x_ = 0.0, y_ = 0.0, z_ = 0.0, e_ = 0.0;
};

/// Closed rectangle loop (counter-clockwise), extruding each side.
void extrude_rect(GcodeBuilder& b, double cx, double cy, double half_x,
                  double half_y, double speed) {
  b.extrude_to(cx + half_x, cy - half_y, speed);
  b.extrude_to(cx + half_x, cy + half_y, speed);
  b.extrude_to(cx - half_x, cy + half_y, speed);
  b.extrude_to(cx - half_x, cy - half_y, speed);
}

void layer_change(GcodeBuilder& b, const SliceProfile& profile, double z,
                  double start_x, double start_y) {
  b.retract();
  b.lift(z);
  b.travel(start_x, start_y);
  b.unretract();
  (void)profile;
}

/// Draws the configured number of skirt outlines around a rectangular
/// footprint centred at (cx, cy) with half-extents (hx, hy), at the
/// current (first) layer height.
void draw_skirt(GcodeBuilder& b, const SliceProfile& profile, double cx,
                double cy, double hx, double hy) {
  for (int loop = profile.skirt_loops; loop >= 1; --loop) {
    const double off = profile.skirt_gap_mm +
                       profile.line_width_mm * static_cast<double>(loop - 1);
    b.travel(cx - hx - off, cy - hy - off);
    extrude_rect(b, cx, cy, hx + off, hy + off,
                 profile.first_layer_speed_mm_s);
  }
}

}  // namespace

double SliceProfile::e_per_mm() const {
  const double filament_area =
      std::numbers::pi * filament_diameter_mm * filament_diameter_mm / 4.0;
  return layer_height_mm * line_width_mm / filament_area;
}

Program start_sequence(const SliceProfile& profile) {
  GcodeBuilder b(profile);
  b.cmd('G', 21, {}, "millimeter units");
  b.cmd('G', 90, {}, "absolute positioning");
  b.raw('M', 82);  // absolute E
  b.fan(0.0);
  b.set_temp_and_wait();
  b.cmd('G', 28, {}, "home all axes");
  b.reset_e();
  b.prime();
  return b.take();
}

Program end_sequence(const SliceProfile& profile) {
  GcodeBuilder b(profile);
  b.retract();
  b.cmd('M', 104, {{'S', 0.0}}, "hotend off");
  if (profile.bed_temp_c > 0.0) b.cmd('M', 140, {{'S', 0.0}}, "bed off");
  b.fan(0.0);
  b.cmd('G', 91, {}, "relative for lift");
  b.cmd('G', 1, {{'Z', 5.0}, {'F', profile.z_speed_mm_s * 60.0}},
        "lift away from part");
  b.cmd('G', 90, {}, "back to absolute");
  b.raw('M', 84);  // motors off
  return b.take();
}

Program slice_cube(const CubeSpec& spec, const SliceProfile& profile) {
  for (const double mm : {spec.size_x_mm, spec.size_y_mm, spec.height_mm}) {
    if (!(std::isfinite(mm) && mm > 0.0)) {
      throw Error("slice_cube: degenerate dimensions");
    }
  }
  GcodeBuilder b(profile);
  b.append(start_sequence(profile));

  const auto layers = static_cast<std::uint32_t>(
      std::ceil(spec.height_mm / profile.layer_height_mm));
  const double cx = spec.center_x_mm;
  const double cy = spec.center_y_mm;

  for (std::uint32_t layer = 1; layer <= layers; ++layer) {
    const double z = static_cast<double>(layer) * profile.layer_height_mm;
    const double speed = (layer == 1) ? profile.first_layer_speed_mm_s
                                      : profile.perimeter_speed_mm_s;
    const double hx = spec.size_x_mm / 2.0;
    const double hy = spec.size_y_mm / 2.0;

    layer_change(b, profile, z, cx - hx, cy - hy);
    if (layer == 1 && profile.skirt_loops > 0) {
      draw_skirt(b, profile, cx, cy, hx, hy);
      b.travel(cx - hx, cy - hy);
    }
    if (layer == profile.fan_from_layer) b.fan(profile.fan_duty);

    // Perimeters, outermost first.
    for (int p = 0; p < profile.perimeter_count; ++p) {
      const double inset = profile.line_width_mm * static_cast<double>(p);
      const double phx = hx - inset;
      const double phy = hy - inset;
      if (phx <= 0.0 || phy <= 0.0) break;
      if (p > 0) b.travel(cx - phx, cy - phy);
      extrude_rect(b, cx, cy, phx, phy, speed);
    }

    // Zigzag infill inside the innermost perimeter.
    const double inset = profile.line_width_mm *
                         static_cast<double>(profile.perimeter_count);
    const double ix = hx - inset;
    const double iy = hy - inset;
    if (ix > 0.0 && iy > 0.0) {
      const double infill_speed = (layer == 1)
                                      ? profile.first_layer_speed_mm_s
                                      : profile.infill_speed_mm_s;
      bool left_to_right = (layer % 2) == 1;
      double yline = cy - iy;
      b.travel(left_to_right ? cx - ix : cx + ix, yline);
      bool first = true;
      while (yline <= cy + iy + 1e-9) {
        const double x_from = left_to_right ? cx - ix : cx + ix;
        const double x_to = left_to_right ? cx + ix : cx - ix;
        if (!first) b.extrude_to(x_from, yline, infill_speed);  // step over
        b.extrude_to(x_to, yline, infill_speed);
        left_to_right = !left_to_right;
        yline += profile.infill_spacing_mm;
        first = false;
      }
    }
    b.reset_e();
  }

  b.append(end_sequence(profile));
  return b.take();
}

Program slice_square(const SquareSpec& spec, const SliceProfile& profile) {
  GcodeBuilder b(profile);
  b.append(start_sequence(profile));
  const auto layers = static_cast<std::uint32_t>(
      std::ceil(spec.height_mm / profile.layer_height_mm));
  const double h = spec.size_mm / 2.0;
  for (std::uint32_t layer = 1; layer <= layers; ++layer) {
    const double z = static_cast<double>(layer) * profile.layer_height_mm;
    const double speed = (layer == 1) ? profile.first_layer_speed_mm_s
                                      : profile.perimeter_speed_mm_s;
    layer_change(b, profile, z, spec.center_x_mm - h, spec.center_y_mm - h);
    if (layer == profile.fan_from_layer) b.fan(profile.fan_duty);
    extrude_rect(b, spec.center_x_mm, spec.center_y_mm, h, h, speed);
  }
  b.append(end_sequence(profile));
  return b.take();
}

Program slice_cylinder(const CylinderSpec& spec, const SliceProfile& profile) {
  if (spec.facets < 3) throw Error("slice_cylinder: need at least 3 facets");
  GcodeBuilder b(profile);
  b.append(start_sequence(profile));
  const auto layers = static_cast<std::uint32_t>(
      std::ceil(spec.height_mm / profile.layer_height_mm));
  const double r = spec.diameter_mm / 2.0;
  auto vertex = [&](int i) {
    const double theta = 2.0 * std::numbers::pi * static_cast<double>(i) /
                         static_cast<double>(spec.facets);
    return std::pair<double, double>{spec.center_x_mm + r * std::cos(theta),
                                     spec.center_y_mm + r * std::sin(theta)};
  };
  for (std::uint32_t layer = 1; layer <= layers; ++layer) {
    const double z = static_cast<double>(layer) * profile.layer_height_mm;
    const double speed = (layer == 1) ? profile.first_layer_speed_mm_s
                                      : profile.perimeter_speed_mm_s;
    const auto [sx, sy] = vertex(0);
    layer_change(b, profile, z, sx, sy);
    if (layer == profile.fan_from_layer) b.fan(profile.fan_duty);
    for (int i = 1; i <= spec.facets; ++i) {
      const auto [x, y] = vertex(i % spec.facets);
      b.extrude_to(x, y, speed);
    }
  }
  b.append(end_sequence(profile));
  return b.take();
}

Program slice_cylinder_arcs(const CylinderSpec& spec,
                            const SliceProfile& profile, bool clockwise) {
  GcodeBuilder b(profile);
  b.append(start_sequence(profile));
  const auto layers = static_cast<std::uint32_t>(
      std::ceil(spec.height_mm / profile.layer_height_mm));
  const double r = spec.diameter_mm / 2.0;
  const double cx = spec.center_x_mm;
  const double cy = spec.center_y_mm;
  const double half_circumference = std::numbers::pi * r;

  for (std::uint32_t layer = 1; layer <= layers; ++layer) {
    const double z = static_cast<double>(layer) * profile.layer_height_mm;
    const double speed = (layer == 1) ? profile.first_layer_speed_mm_s
                                      : profile.perimeter_speed_mm_s;
    // Start at the east point of the circle.
    layer_change(b, profile, z, cx + r, cy);
    if (layer == profile.fan_from_layer) b.fan(profile.fan_duty);
    // Two half-circles: east -> west, then back around.
    b.arc_to(clockwise, cx - r, cy, -r, 0.0, half_circumference, speed);
    b.arc_to(clockwise, cx + r, cy, r, 0.0, half_circumference, speed);
    b.reset_e();
  }
  b.append(end_sequence(profile));
  return b.take();
}

}  // namespace offramps::host
