// In-memory union filesystem modelling overlayfs (paper section 5.2.1).
//
// A UnionFs stacks shared read-only lower layers (base image + language
// runtime + function dependencies) under a private writable upper directory.
// Writes copy up; deletes whiteout; purging the upper dir restores the
// pristine view — exactly the cleansing step TrEnv runs between functions.
#ifndef TRENV_SANDBOX_UNION_FS_H_
#define TRENV_SANDBOX_UNION_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/simkernel/types.h"

namespace trenv {

struct FileNode {
  uint64_t size_bytes = 0;
  uint64_t content_id = 0;  // logical content; equal ids = identical bytes
  FileId file_id = -1;      // global id for page-cache keying
};

// A read-only layer shared between many sandboxes (e.g. a base Debian image
// or a function's site-packages). Immutable once built.
class FsLayer {
 public:
  explicit FsLayer(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void AddFile(const std::string& path, FileNode node);
  const FileNode* Find(const std::string& path) const;
  const std::map<std::string, FileNode>& files() const { return files_; }
  uint64_t TotalBytes() const;

 private:
  std::string name_;
  std::map<std::string, FileNode> files_;
};

class UnionFs {
 public:
  // Layers are ordered bottom-up; the last pushed lower is consulted first.
  void PushLower(std::shared_ptr<const FsLayer> layer);
  size_t lower_count() const { return lowers_.size(); }
  // Removes the topmost lower layer (TrEnv's function-overlay swap).
  Status PopLower();

  // Lookup resolves upper -> whiteout -> lowers (top-down).
  Result<FileNode> Stat(const std::string& path) const;
  bool Exists(const std::string& path) const { return Stat(path).ok(); }

  // Copy-on-write write: lands in the upper dir regardless of origin.
  Status Write(const std::string& path, uint64_t size_bytes, uint64_t content_id);
  // Delete: removes from upper and whiteouts any lower-layer file.
  Status Delete(const std::string& path);

  // Cleansing: drops every upper-dir modification and whiteout. Returns the
  // number of upper entries removed (the purge cost driver).
  uint64_t PurgeUpper();

  uint64_t upper_file_count() const { return upper_.size() + whiteouts_.size(); }
  uint64_t upper_bytes() const;

 private:
  std::vector<std::shared_ptr<const FsLayer>> lowers_;
  std::map<std::string, FileNode> upper_;
  std::set<std::string> whiteouts_;
  FileId next_upper_file_id_ = 1'000'000;  // upper files get private ids
};

}  // namespace trenv

#endif  // TRENV_SANDBOX_UNION_FS_H_
