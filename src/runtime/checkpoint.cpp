#include "runtime/checkpoint.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "common/check.h"

namespace mpipe::runtime {

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x00000100000001b3ull;
  }
  return h;
}

namespace {

class Writer {
 public:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  void tensor(const Tensor& t) {
    const auto& shape = t.shape();
    u32(static_cast<std::uint32_t>(shape.rank()));
    for (std::size_t i = 0; i < shape.rank(); ++i) i64(t.dim(i));
    raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  void raw(void* p, std::size_t n) {
    MPIPE_CHECK(pos_ + n <= size_, "checkpoint payload truncated");
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
  }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof(v)); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof(v)); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof(v)); return v; }
  double f64() { double v; raw(&v, sizeof(v)); return v; }
  std::string str() {
    const std::uint64_t n = u64();
    MPIPE_CHECK(pos_ + n <= size_, "checkpoint payload truncated");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  struct TensorImage {
    std::vector<std::int64_t> dims;
    std::vector<float> data;
  };
  TensorImage tensor() {
    TensorImage img;
    const std::uint32_t rank = u32();
    MPIPE_CHECK(rank <= 8, "checkpoint tensor rank implausible");
    std::int64_t numel = 1;
    for (std::uint32_t i = 0; i < rank; ++i) {
      const std::int64_t d = i64();
      MPIPE_CHECK(d >= 0, "checkpoint tensor dim negative");
      img.dims.push_back(d);
      numel *= d;
    }
    MPIPE_CHECK(pos_ + static_cast<std::size_t>(numel) * sizeof(float) <=
                    size_,
                "checkpoint payload truncated");
    img.data.resize(static_cast<std::size_t>(numel));
    raw(img.data.data(), static_cast<std::size_t>(numel) * sizeof(float));
    return img;
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool shape_matches(const Tensor& t, const Reader::TensorImage& img) {
  if (static_cast<std::size_t>(t.shape().rank()) != img.dims.size()) {
    return false;
  }
  for (std::size_t i = 0; i < img.dims.size(); ++i) {
    if (t.dim(i) != img.dims[i]) return false;
  }
  return true;
}

void copy_into(Tensor& t, const Reader::TensorImage& img) {
  std::memcpy(t.data(), img.data.data(), img.data.size() * sizeof(float));
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(
    core::MoELayer& layer, const Adam& adam, const WorkloadGenerator& workload,
    const TrainerCheckpointState& state) {
  Writer w;
  // Section: model parameters (gating + experts, the layer's order).
  const auto params = layer.parameters();
  w.u64(params.size());
  for (const Tensor* t : params) w.tensor(*t);
  // Section: Adam (step count, momentum, variance — index-aligned).
  w.i64(adam.step_count());
  w.u64(adam.momentum().size());
  for (const Tensor& t : adam.momentum()) w.tensor(t);
  for (const Tensor& t : adam.variance()) w.tensor(t);
  // Section: workload generator (mt19937_64 stream as its text state).
  {
    std::ostringstream os;
    os << workload.rng().engine();
    w.str(os.str());
  }
  w.i64(workload.last_batch_tokens());
  // Section: trainer bookkeeping.
  w.i64(state.steps_run);
  w.u32(state.warmup.installed ? 1 : 0);
  w.f64(state.corrections.compute);
  w.f64(state.corrections.comm);
  w.f64(state.corrections.memcpy);
  for (double v : state.warmup.fit.simulated) w.f64(v);
  for (double v : state.warmup.fit.measured) w.f64(v);
  w.i64(state.warmup.fit.steps);
  // Section: granularity-searcher memory.
  w.u64(state.searcher.cache.size());
  for (const auto& [b, n] : state.searcher.cache) {
    w.i64(b);
    w.i64(n);
  }
  w.u64(state.searcher.ranges.size());
  for (const core::BatchRange& r : state.searcher.ranges) {
    w.i64(r.lower);
    w.i64(r.upper);
    w.i64(r.n);
  }

  std::vector<std::uint8_t> payload = w.take();
  Writer framed;
  framed.u64(kCheckpointMagic);
  framed.u32(kCheckpointVersion);
  framed.u64(payload.size());
  framed.u64(fnv1a64(payload.data(), payload.size()));
  framed.raw(payload.data(), payload.size());
  return framed.take();
}

TrainerCheckpointState apply_checkpoint(const std::vector<std::uint8_t>& bytes,
                                        core::MoELayer& layer, Adam& adam,
                                        WorkloadGenerator& workload) {
  Reader header(bytes.data(), bytes.size());
  MPIPE_CHECK(header.u64() == kCheckpointMagic, "not a checkpoint (magic)");
  const std::uint32_t version = header.u32();
  MPIPE_CHECK(version == kCheckpointVersion,
              "unsupported checkpoint version " + std::to_string(version));
  const std::uint64_t payload_bytes = header.u64();
  const std::uint64_t checksum = header.u64();
  constexpr std::size_t kHeader =
      sizeof(std::uint64_t) * 3 + sizeof(std::uint32_t);
  MPIPE_CHECK(bytes.size() == kHeader + payload_bytes,
              "checkpoint length mismatch");
  const std::uint8_t* payload = bytes.data() + kHeader;
  MPIPE_CHECK(fnv1a64(payload, payload_bytes) == checksum,
              "checkpoint checksum mismatch — refusing corrupt state");

  // Parse the whole payload into scratch images first; the live model is
  // only touched after every section validated (all-or-nothing restore).
  Reader r(payload, payload_bytes);
  const auto live_params = layer.parameters();
  const std::uint64_t param_count = r.u64();
  MPIPE_CHECK(param_count == live_params.size(),
              "checkpoint parameter count mismatch");
  std::vector<Reader::TensorImage> params;
  params.reserve(param_count);
  for (std::uint64_t i = 0; i < param_count; ++i) {
    params.push_back(r.tensor());
    MPIPE_CHECK(shape_matches(*live_params[i], params.back()),
                "checkpoint parameter shape mismatch at index " +
                    std::to_string(i));
  }
  const std::int64_t adam_t = r.i64();
  MPIPE_CHECK(adam_t >= 0, "checkpoint Adam step count negative");
  const std::uint64_t state_count = r.u64();
  MPIPE_CHECK(state_count == adam.momentum().size(),
              "checkpoint optimizer state count mismatch");
  std::vector<Reader::TensorImage> momentum, variance;
  for (std::uint64_t i = 0; i < state_count; ++i) {
    momentum.push_back(r.tensor());
    MPIPE_CHECK(shape_matches(adam.momentum()[i], momentum.back()),
                "checkpoint momentum shape mismatch");
  }
  for (std::uint64_t i = 0; i < state_count; ++i) {
    variance.push_back(r.tensor());
    MPIPE_CHECK(shape_matches(adam.variance()[i], variance.back()),
                "checkpoint variance shape mismatch");
  }
  const std::string rng_state = r.str();
  const std::int64_t last_tokens = r.i64();

  TrainerCheckpointState state;
  state.steps_run = r.i64();
  state.warmup.installed = r.u32() != 0;
  state.corrections.compute = r.f64();
  state.corrections.comm = r.f64();
  state.corrections.memcpy = r.f64();
  for (double& v : state.warmup.fit.simulated) v = r.f64();
  for (double& v : state.warmup.fit.measured) v = r.f64();
  state.warmup.fit.steps = static_cast<int>(r.i64());
  const std::uint64_t cache_n = r.u64();
  for (std::uint64_t i = 0; i < cache_n; ++i) {
    const std::int64_t b = r.i64();
    const std::int64_t n = r.i64();
    state.searcher.cache.emplace_back(b, static_cast<int>(n));
  }
  const std::uint64_t range_n = r.u64();
  for (std::uint64_t i = 0; i < range_n; ++i) {
    core::BatchRange range;
    range.lower = r.i64();
    range.upper = r.i64();
    range.n = static_cast<int>(r.i64());
    state.searcher.ranges.push_back(range);
  }
  MPIPE_CHECK(r.exhausted(), "checkpoint has trailing bytes");

  // Validate the RNG stream parses before committing anything.
  std::mt19937_64 engine;
  {
    std::istringstream is(rng_state);
    is >> engine;
    MPIPE_CHECK(!is.fail(), "checkpoint RNG state unparsable");
  }

  // Commit: element-wise copies into the pointer-bound live storage.
  for (std::uint64_t i = 0; i < param_count; ++i) {
    copy_into(*live_params[i], params[i]);
  }
  adam.set_step_count(adam_t);
  for (std::uint64_t i = 0; i < state_count; ++i) {
    copy_into(adam.momentum()[i], momentum[i]);
    copy_into(adam.variance()[i], variance[i]);
  }
  Rng rng;
  rng.engine() = engine;
  workload.set_rng(rng);
  workload.set_last_batch_tokens(last_tokens);
  return state;
}

void write_checkpoint_file(const std::string& path,
                           const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MPIPE_CHECK(static_cast<bool>(out), "cannot open checkpoint for write: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  MPIPE_CHECK(static_cast<bool>(out), "checkpoint write failed: " + path);
}

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  MPIPE_CHECK(static_cast<bool>(in), "cannot open checkpoint: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  MPIPE_CHECK(static_cast<bool>(in), "checkpoint read failed: " + path);
  return bytes;
}

}  // namespace mpipe::runtime
