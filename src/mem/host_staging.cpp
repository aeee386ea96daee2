#include "mem/host_staging.h"

#include "common/check.h"
#include "tensor/quant.h"

namespace mpipe::mem {

void HostStaging::store(int device, const std::string& key, const Tensor& t,
                        bool allow_overwrite, DType dtype) {
  MPIPE_EXPECTS(t.defined(), "staging a null tensor");
  Tensor copy = t.clone();  // deep copy outside the lock
  std::uint64_t bytes = copy.nbytes();
  if (dtype != DType::kF32 && copy.shape().rank() == 2) {
    // Stage in the wire format: round the values the way the reduced
    // storage would, account the bytes host RAM would actually hold.
    round_through_dtype(copy.data(), copy.dim(0), copy.dim(1), dtype);
    bytes = quantized_bytes(copy.dim(0), copy.dim(1), dtype);
  }
  const auto k = std::make_pair(device, key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(k);
  if (it != store_.end()) {
    MPIPE_EXPECTS(allow_overwrite,
                  "staging collision: device " + std::to_string(device) +
                      " key '" + key +
                      "' is already staged — a live entry was about to be "
                      "silently overwritten (pass allow_overwrite to "
                      "replace deliberately)");
    bytes_ -= it->second.bytes;
    it->second = Entry{std::move(copy), bytes};
    bytes_ += bytes;
    return;
  }
  store_.emplace(k, Entry{std::move(copy), bytes});
  bytes_ += bytes;
}

Tensor HostStaging::load(int device, const std::string& key) const {
  Tensor staged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = store_.find(std::make_pair(device, key));
    MPIPE_EXPECTS(it != store_.end(),
                  "no staged tensor for device " + std::to_string(device) +
                      " key '" + key + "'");
    staged = it->second.t;  // shallow share under the lock...
  }
  return staged.clone();  // ...deep copy outside it
}

bool HostStaging::contains(int device, const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.count(std::make_pair(device, key)) > 0;
}

void HostStaging::drop(int device, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = store_.find(std::make_pair(device, key));
  if (it == store_.end()) return;
  bytes_ -= it->second.bytes;
  store_.erase(it);
}

void HostStaging::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  store_.clear();
  bytes_ = 0;
}

std::uint64_t HostStaging::bytes_stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::size_t HostStaging::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.size();
}

const void* HostStaging::slot_token(int device, const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return &tokens_[std::make_pair(device, key)];
}

}  // namespace mpipe::mem
