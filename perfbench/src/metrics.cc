#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench.h"

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

double LatencySet::PercentileNs(double q) {
  const size_t n = static_cast<size_t>(count());
  if (n == 0) return 0;
  if (!sorted_) {
    std::sort(ns.begin(), ns.end());
    sorted_ = true;
  }
  const size_t index = NearestRank(n, q);
  if (index >= ns.size()) return static_cast<double>(miss_ns);
  return static_cast<double>(ns[index]);
}

double LatencySet::MeanNs() const {
  if (count() == 0) return 0;
  double sum = static_cast<double>(misses) * static_cast<double>(miss_ns);
  for (int64_t v : ns) sum += static_cast<double>(v);
  return sum / static_cast<double>(count());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), q)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void ReleaseFreedMemory() { malloc_trim(0); }

std::string FilesystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL:
      return "ext2/3/4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x2FC12FC1UL:
      return "zfs";
    case 0x6969UL:
      return "nfs";
    case 0x65735546UL:
      return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

bool FreshDir(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return std::filesystem::create_directories(path, ec) && !ec;
}

uint64_t HashFile(const std::string& path, uint64_t seed) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  uint64_t h = seed;
  char buf[1 << 15];
  while (in) {
    in.read(buf, sizeof(buf));
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

int64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
