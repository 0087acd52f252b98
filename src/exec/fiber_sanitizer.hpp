#pragma once
/// \file fiber_sanitizer.hpp
/// AddressSanitizer fiber-switch annotations for EventEngine's ucontext
/// fallback (the pooled per-rank fiber stacks it uses under sanitizers and
/// on non-x86-64 targets).
///
/// ASan tracks one stack per thread. A fiber running on a heap block is
/// invisible to it unless every switch is announced: without the
/// annotations, an exception thrown on a fiber makes ASan unpoison the wrong
/// stack range and report false stack-buffer-overflows in stale redzones of
/// the reused fiber memory. Outside ASan builds both macros compile away.

#if defined(__SANITIZE_ADDRESS__)
#define AMRIO_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AMRIO_FIBER_ASAN 1
#endif
#endif

#ifdef AMRIO_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
/// Announce a switch to the stack [bottom, bottom + size); `save` receives
/// the outgoing fiber's fake-stack handle (nullptr when it never resumes).
#define AMRIO_FIBER_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber(save, bottom, size)
/// Complete a switch on the incoming stack; optionally learn the bounds of
/// the stack that was switched away from.
#define AMRIO_FIBER_FINISH_SWITCH(save, bottom, size) \
  __sanitizer_finish_switch_fiber(save, bottom, size)
#else
// Arguments are evaluated (all are side-effect-free) so a handle variable
// that exists only for the annotation does not trip -Wunused-variable.
#define AMRIO_FIBER_START_SWITCH(save, bottom, size) \
  ((void)(save), (void)(bottom), (void)(size))
#define AMRIO_FIBER_FINISH_SWITCH(save, bottom, size) \
  ((void)(save), (void)(bottom), (void)(size))
#endif
