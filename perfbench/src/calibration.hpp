// Machine-speed calibration for the DES throughput metric.
//
// A shared machine runs the same CPU-bound drain up to 2x slower in one
// process than in the next (neighbouring load on the physical cores; the
// thread is not descheduled, its CPU time grows with its wall time). The
// calibration kernel below is fixed benchmark code shaped like the
// simulator's hot loop; timing it next to every drain measures how fast the
// machine currently runs that kind of code, so drain times can be expressed
// in seconds of a nominal machine.
#pragma once

namespace perfbench {

/// Seconds one run of the fixed calibration kernel takes right now.
double calibration_seconds();

}  // namespace perfbench
