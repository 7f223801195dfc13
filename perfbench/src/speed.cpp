#include "speed.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

constexpr int kWidth = 64;
constexpr int kHeight = 64;
constexpr int kLayers = 6;
constexpr int kNodes = kWidth * kHeight * kLayers;

/// Fixed pseudo-random node costs in [1, 9] (same on every run).
const std::vector<std::uint8_t>& nodeCosts() {
    static const std::vector<std::uint8_t> costs = [] {
        std::vector<std::uint8_t> c(kNodes);
        std::uint32_t x = 99;
        for (std::uint8_t& v : c) {
            x = x * 1664525u + 1013904223u;
            v = static_cast<std::uint8_t>(1 + (x >> 24) % 9);
        }
        return c;
    }();
    return costs;
}

}  // namespace

double kernelSeconds() {
    const std::vector<std::uint8_t>& cost = nodeCosts();
    const streak::obs::Stopwatch timer;
    // Single-source shortest paths over a full-size 3-D routing grid with
    // a binary heap: the access pattern of a maze search, in code of the
    // benchmark's own so that no change to the program moves it.
    std::vector<int> dist(kNodes, 1 << 30);
    std::vector<std::pair<int, int>> heap;  // (-distance, node)
    dist[0] = 0;
    heap.emplace_back(0, 0);
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end());
        const auto [negDist, v] = heap.back();
        heap.pop_back();
        if (-negDist != dist[static_cast<size_t>(v)]) continue;
        const int layer = v / (kWidth * kHeight);
        const int x = v % kWidth;
        const int y = (v / kWidth) % kHeight;
        const int next[6] = {
            x > 0 ? v - 1 : -1,
            x < kWidth - 1 ? v + 1 : -1,
            y > 0 ? v - kWidth : -1,
            y < kHeight - 1 ? v + kWidth : -1,
            layer > 0 ? v - kWidth * kHeight : -1,
            layer < kLayers - 1 ? v + kWidth * kHeight : -1,
        };
        for (const int u : next) {
            if (u < 0) continue;
            const int d = -negDist + cost[static_cast<size_t>(u)];
            if (d < dist[static_cast<size_t>(u)]) {
                dist[static_cast<size_t>(u)] = d;
                heap.emplace_back(-d, u);
                std::push_heap(heap.begin(), heap.end());
            }
        }
    }
    // Keep the result observable so the search cannot be optimised away.
    static volatile int sink = 0;
    sink = dist[kNodes - 1];
    (void)sink;
    return timer.seconds();
}

}  // namespace perfbench
