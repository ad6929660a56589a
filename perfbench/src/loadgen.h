#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include "util.h"

namespace perfbench {

/// `perfbench_tool loadgen`: drives a running tmark_served (see
/// loadgen.cc) and prints one JSON summary line.
int RunLoadgen(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
