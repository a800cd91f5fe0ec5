// Google-benchmark microbenchmarks: raw simulator probe dispatch, routing
// BFS, subnet exploration, and a complete tracenet session. Engineering
// numbers for the library itself, not a paper experiment.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/session.h"
#include "probe/sim_engine.h"
#include "runtime/campaign.h"
#include "sim/network.h"
#include "topo/reference.h"

namespace {

using namespace tn;

const topo::ReferenceTopology& internet2() {
  static const topo::ReferenceTopology ref = topo::internet2_like(42);
  return ref;
}

void BM_ProbeDispatch(benchmark::State& state) {
  const auto& ref = internet2();
  sim::Network net(ref.topo);
  const net::Ipv4Addr target = ref.targets.front();
  net::Probe probe;
  probe.target = target;
  probe.ttl = net::kDirectProbeTtl;
  for (auto _ : state)
    benchmark::DoNotOptimize(net.send_probe(ref.vantage, probe));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeDispatch);

void BM_TracerouteLadder(benchmark::State& state) {
  const auto& ref = internet2();
  sim::Network net(ref.topo);
  probe::SimProbeEngine engine(net, ref.vantage);
  core::Traceroute tracer(engine);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.run(ref.targets[i % ref.targets.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerouteLadder);

void BM_TracenetSession(benchmark::State& state) {
  const auto& ref = internet2();
  sim::Network net(ref.topo);
  probe::SimProbeEngine engine(net, ref.vantage);
  core::TracenetSession session(engine);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.run(ref.targets[i % ref.targets.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracenetSession);

void BM_RoutingBfsColdCache(benchmark::State& state) {
  const auto& ref = internet2();
  for (auto _ : state) {
    // A fresh table every iteration keeps every query cold: the routing
    // plane and the vantage's origin row are built anew; each distance then
    // reads the row at the subnet's seeds.
    sim::RoutingTable routes(ref.topo);
    for (sim::SubnetId s = 0; s < std::min<std::size_t>(8, ref.topo.subnet_count()); ++s)
      benchmark::DoNotOptimize(routes.distance(ref.vantage, s));
  }
}
BENCHMARK(BM_RoutingBfsColdCache);

void BM_FullInternet2Campaign(benchmark::State& state) {
  for (auto _ : state) {
    const auto ref = topo::internet2_like(42);
    sim::Network net(ref.topo);
    benchmark::DoNotOptimize(runtime::run_campaign(
        net, ref.vantage, "v", ref.targets, bench::serial_campaign()));
  }
}
BENCHMARK(BM_FullInternet2Campaign)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
