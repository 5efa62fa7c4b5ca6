#include "src/sandbox/union_fs.h"

namespace trenv {

void FsLayer::AddFile(const std::string& path, FileNode node) { files_[path] = node; }

const FileNode* FsLayer::Find(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

uint64_t FsLayer::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [path, node] : files_) {
    total += node.size_bytes;
  }
  return total;
}

void UnionFs::PushLower(std::shared_ptr<const FsLayer> layer) {
  lowers_.push_back(std::move(layer));
}

Status UnionFs::PopLower() {
  if (lowers_.empty()) {
    return Status::FailedPrecondition("no lower layers to pop");
  }
  lowers_.pop_back();
  return Status::Ok();
}

Result<FileNode> UnionFs::Stat(const std::string& path) const {
  auto upper_it = upper_.find(path);
  if (upper_it != upper_.end()) {
    return upper_it->second;
  }
  if (whiteouts_.contains(path)) {
    return Status::NotFound("file deleted (whiteout): " + path);
  }
  for (auto it = lowers_.rbegin(); it != lowers_.rend(); ++it) {
    const FileNode* node = (*it)->Find(path);
    if (node != nullptr) {
      return *node;
    }
  }
  return Status::NotFound("no such file: " + path);
}

Status UnionFs::Write(const std::string& path, uint64_t size_bytes, uint64_t content_id) {
  FileNode node;
  node.size_bytes = size_bytes;
  node.content_id = content_id;
  node.file_id = next_upper_file_id_++;
  upper_[path] = node;
  whiteouts_.erase(path);
  return Status::Ok();
}

Status UnionFs::Delete(const std::string& path) {
  const bool in_upper = upper_.erase(path) > 0;
  bool in_lower = false;
  for (auto it = lowers_.rbegin(); it != lowers_.rend(); ++it) {
    if ((*it)->Find(path) != nullptr) {
      in_lower = true;
      break;
    }
  }
  if (in_lower) {
    whiteouts_.insert(path);
    return Status::Ok();
  }
  if (!in_upper) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::Ok();
}

uint64_t UnionFs::PurgeUpper() {
  const uint64_t purged = upper_.size() + whiteouts_.size();
  upper_.clear();
  whiteouts_.clear();
  return purged;
}

uint64_t UnionFs::upper_bytes() const {
  uint64_t total = 0;
  for (const auto& [path, node] : upper_) {
    total += node.size_bytes;
  }
  return total;
}

}  // namespace trenv
