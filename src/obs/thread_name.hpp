// Name the calling thread, so per-thread CPU and context switches can be
// read by name from /proc/<pid>/task/*/{comm,schedstat,status} or
// `top -H`.  Linux keeps 15 characters; longer names are truncated.  An
// operator aid, not a recording feature: it stays on in
// RLB_OBS_ENABLED=OFF builds.
#pragma once

#include <pthread.h>

#include <string>

namespace rlb::obs {

inline void set_thread_name(const std::string& name) {
  ::pthread_setname_np(::pthread_self(), name.substr(0, 15).c_str());
}

}  // namespace rlb::obs
