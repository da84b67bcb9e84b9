#pragma once
// A private temporary directory per bench process, so concurrent runs never
// overwrite each other's model files.  Created with mkdtemp under the system
// temp directory and removed, with its contents, when the object goes out of
// scope (every return from main).

#include <stdlib.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <system_error>

namespace aigml::bench {

class TempDir {
 public:
  explicit TempDir(const std::string& prefix) {
    std::string pattern = (std::filesystem::temp_directory_path() / (prefix + "_XXXXXX")).string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("TempDir: mkdtemp failed for " + pattern);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;  // best effort: a failed removal must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace aigml::bench
