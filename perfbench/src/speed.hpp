// Host-speed calibration. On a shared host the core a run lands on can
// be 25-60% slower for seconds or minutes at a time, and that drift
// moves every wall time alike. The benchmark therefore times a fixed
// calibration kernel between operations and reports timings rescaled to
// the kernel's reference time: the host's speed cancels, the program's
// does not (the kernel never calls into it).
#pragma once

namespace perfbench {

/// Nominal wall time of one calibration kernel run, the unit the
/// rescaled ("reference") seconds are expressed in.
inline constexpr double kReferenceKernelSeconds = 0.0025;

/// Wall seconds of one run of the calibration kernel: a shortest-path
/// search over a fixed 64x64x6 grid, the load pattern of maze routing.
[[nodiscard]] double kernelSeconds();

/// `wallSeconds` rescaled to the reference speed, given the kernel time
/// measured around it.
[[nodiscard]] inline double referenceSeconds(double wallSeconds,
                                             double kernel) {
    return wallSeconds * kReferenceKernelSeconds / kernel;
}

}  // namespace perfbench
