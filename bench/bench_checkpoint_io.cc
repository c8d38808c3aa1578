// Micro benchmarks for the fault-tolerance layer: checkpoint write/load
// throughput across snapshot sizes, the CRC32 core (MB/s, next to the bytewise
// loop it replaced), and atomic file commits.
// Guards the per-epoch checkpoint overhead — the write path sits inside the
// training loop, so a regression here slows every checkpointed run.
//
//   ./build/bench/bench_checkpoint_io [--repeats=N]
//
// Each line is the median time per call over N timed batches (default 3).

#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "ar/training_checkpoint.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "linalg/matrix.h"
#include "storage/artifact_io.h"

namespace sam {
namespace {

std::string BenchDir() {
  static const std::string dir = [] {
    const auto d = std::filesystem::temp_directory_path() / "sam_bench_ckpt";
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d.string();
  }();
  return dir;
}

/// A synthetic checkpoint whose parameter payload totals roughly
/// `param_doubles` doubles — the knob that dominates snapshot size.
TrainingCheckpoint MakeCheckpoint(size_t param_doubles) {
  TrainingCheckpoint c;
  c.fingerprint = 0xfeedface;
  c.epoch = 7;
  c.step_start = 128;
  c.in_epoch = true;
  c.seconds_elapsed = 321.5;
  c.rng_state = Rng(42).SaveState();
  c.order.resize(2000);
  for (size_t i = 0; i < c.order.size(); ++i) c.order[i] = i;
  const size_t rows = 64;
  const size_t cols = std::max<size_t>(1, param_doubles / (3 * rows));
  Rng rng(9);
  for (int t = 0; t < 3; ++t) {
    Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform();
    c.params.push_back(m);
    c.adam_m.push_back(m);
    c.adam_v.push_back(m);
  }
  c.adam_step_count = 999;
  c.adam_lr = 1e-3;
  return c;
}

void BenchCheckpointSave(const bench::BenchConfig& config, size_t n) {
  const TrainingCheckpoint c = MakeCheckpoint(n);
  const std::string path = BenchDir() + "/save.ckpt";
  SAM_CHECK(c.Save(path).ok());
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  bench::RunMicro(config, "CheckpointSave/" + std::to_string(n),
                  [&] { bench::KeepAlive(c.Save(path)); }, 0, bytes);
}

void BenchCheckpointLoad(const bench::BenchConfig& config, size_t n) {
  const std::string name = "CheckpointLoad/" + std::to_string(n);
  const TrainingCheckpoint c = MakeCheckpoint(n);
  const std::string path = BenchDir() + "/load.ckpt";
  if (!c.Save(path).ok()) {
    bench::SkipMicro(name, "checkpoint save failed");
    return;
  }
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  bench::RunMicro(config, name, [&] {
    auto loaded = TrainingCheckpoint::Load(path);
    bench::KeepAlive(loaded);
  }, 0, bytes);
}

void BenchCrc32(const bench::BenchConfig& config, size_t n) {
  const std::string data(n, 'x');
  bench::RunMicro(config, "Crc32/" + std::to_string(n), [&] {
    bench::KeepAlive(Crc32(data.data(), data.size()));
  }, 0, static_cast<double>(n));
}

/// The bytewise table loop `Crc32` replaced (one lookup per byte), timed on
/// the same bytes so the two MB/s columns compare directly.
void BenchCrc32Bytewise(const bench::BenchConfig& config, size_t n) {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  const std::string data(n, 'x');
  auto bytewise = [&] {
    uint32_t c = 0xffffffffu;
    for (const char ch : data) {
      c = table[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
    }
    return c ^ 0xffffffffu;
  };
  SAM_CHECK_EQ(bytewise(), Crc32(data.data(), data.size()));
  bench::RunMicro(config, "Crc32Bytewise/" + std::to_string(n),
                  [&] { bench::KeepAlive(bytewise()); }, 0,
                  static_cast<double>(n));
}

void BenchAtomicWriteFile(const bench::BenchConfig& config, size_t n) {
  const std::string contents(n, 'y');
  const std::string path = BenchDir() + "/atomic.bin";
  bench::RunMicro(config, "AtomicWriteFile/" + std::to_string(n), [&] {
    bench::KeepAlive(AtomicWriteFile(path, contents));
  }, 0, static_cast<double>(n));
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) {
  using namespace sam;
  const bench::BenchConfig config = bench::ParseArgs(argc, argv);
  for (size_t n : {10'000, 100'000, 1'000'000}) BenchCheckpointSave(config, n);
  for (size_t n : {10'000, 100'000, 1'000'000}) BenchCheckpointLoad(config, n);
  for (size_t n : {4 << 10, 1 << 20, 16 << 20}) BenchCrc32(config, n);
  BenchCrc32Bytewise(config, 1 << 20);
  for (size_t n : {64 << 10, 4 << 20}) BenchAtomicWriteFile(config, n);
  return 0;
}
