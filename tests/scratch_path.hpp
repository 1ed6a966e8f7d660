// Per-process scratch files for tests. ctest runs a binary's discovered
// cases next to the whole binary (the aggregate `*_suite` entries) under
// `-j`, so two processes must never share a path: every path carries the
// process id.
#pragma once

#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace ranknet::test {

/// /tmp/ranknet_<name>.<pid><ext>
inline std::string scratch_path(const std::string& name,
                                const std::string& ext = "") {
  return "/tmp/ranknet_" + name + "." + std::to_string(::getpid()) + ext;
}

/// A scratch_path (file or directory) removed with everything under it
/// when it goes out of scope.
struct ScratchPath {
  explicit ScratchPath(const std::string& name, const std::string& ext = "")
      : path(scratch_path(name, ext)) {}
  ~ScratchPath() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchPath(const ScratchPath&) = delete;
  ScratchPath& operator=(const ScratchPath&) = delete;
  const std::string path;
};

}  // namespace ranknet::test
