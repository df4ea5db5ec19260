// Build-time sanitizer detection, shared by the code that must behave
// differently under a sanitizer runtime. Defines OTTER_SANITIZED when the
// translation unit is compiled with ASan, TSan or MSan (GCC spells these
// __SANITIZE_*__, Clang exposes them through __has_feature).
#pragma once

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OTTER_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define OTTER_SANITIZED 1
#endif
#endif
