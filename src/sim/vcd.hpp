#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace retscan {

/// Value-change-dump (IEEE 1364 VCD) writer for debugging protected-design
/// control sequences in a waveform viewer. Attach to a Simulator, select
/// nets (by name or id), then call sample() once per clock cycle; emits
/// only actual changes.
class VcdWriter {
 public:
  /// `timescale_ns` is the VCD timestep per sample (one clock period).
  VcdWriter(std::ostream& os, const Simulator& sim, double timescale_ns = 10.0);

  /// Track a named net. Returns false if the name is unknown.
  bool add_signal(const std::string& net_name);
  /// Track an arbitrary net under an explicit display name.
  void add_signal(NetId net, const std::string& display_name);

  /// Write the header. Must be called after all add_signal() calls and
  /// before the first sample().
  void write_header(const std::string& module_name = "retscan");

  /// Record the current values at the next timestep.
  void sample();

 private:
  struct Signal {
    NetId net;
    std::string name;
    std::string code;   // VCD identifier code
    int last = -1;      // -1 = not yet emitted
  };

  static std::string code_for(std::size_t index);

  std::ostream* os_;
  const Simulator* sim_;
  double timescale_ns_;
  std::vector<Signal> signals_;
  std::uint64_t time_ = 0;
  bool header_written_ = false;
};

}  // namespace retscan
