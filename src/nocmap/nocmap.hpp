#pragma once
/// \file nocmap.hpp
/// Umbrella header: the full public API of the nocmap library.
///
/// nocmap reproduces "Exploring NoC Mapping Strategies: An Energy and Timing
/// Aware Technique" (Marcon et al., DATE 2005): communication-weighted (CWM)
/// and communication-dependence-and-computation (CDCM) application models,
/// an event-driven wormhole mesh simulator with contention, energy models
/// for dynamic and static (leakage) consumption, and mapping search by
/// simulated annealing, exhaustive enumeration, greedy construction and
/// random sampling.
///
/// Quick start:
///
///   #include "nocmap/nocmap.hpp"
///   using namespace nocmap;
///
///   graph::Cdcg app = workload::paper_example_cdcg();
///   noc::Mesh mesh(2, 2);
///   core::ExplorerOptions options;
///   options.tech = energy::example_technology();
///   core::Explorer explorer(app, mesh, options);
///   core::Comparison cmp = explorer.compare();
///   // cmp.execution_time_reduction(), cmp.cdcm.sim.texec_ns, ...

#include "nocmap/core/explorer.hpp"
#include "nocmap/core/scale_bench.hpp"
#include "nocmap/energy/energy_model.hpp"
#include "nocmap/energy/technology.hpp"
#include "nocmap/graph/cdcg.hpp"
#include "nocmap/graph/cwg.hpp"
#include "nocmap/mapping/cost.hpp"
#include "nocmap/mapping/mapping.hpp"
#include "nocmap/noc/express_mesh.hpp"
#include "nocmap/noc/grid.hpp"
#include "nocmap/noc/mesh.hpp"
#include "nocmap/noc/route_table.hpp"
#include "nocmap/noc/routing.hpp"
#include "nocmap/noc/topology.hpp"
#include "nocmap/noc/torus.hpp"
#include "nocmap/search/branch_and_bound.hpp"
#include "nocmap/search/exhaustive.hpp"
#include "nocmap/search/greedy.hpp"
#include "nocmap/search/random_search.hpp"
#include "nocmap/search/simulated_annealing.hpp"
#include "nocmap/serve/canonical.hpp"
#include "nocmap/serve/engine.hpp"
#include "nocmap/serve/result_cache.hpp"
#include "nocmap/serve/serve_bench.hpp"
#include "nocmap/sim/schedule.hpp"
#include "nocmap/sim/simulator.hpp"
#include "nocmap/sim/timeline.hpp"
#include "nocmap/util/parallel.hpp"
#include "nocmap/util/rng.hpp"
#include "nocmap/util/strings.hpp"
#include "nocmap/util/table.hpp"
#include "nocmap/workload/fft.hpp"
#include "nocmap/workload/image_encoder.hpp"
#include "nocmap/workload/interchange.hpp"
#include "nocmap/workload/object_recognition.hpp"
#include "nocmap/workload/paper_example.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/romberg.hpp"
#include "nocmap/workload/suite.hpp"
#include "nocmap/workload/synthetic.hpp"
#include "nocmap/workload/tgff.hpp"
#include "nocmap/workload/workload_source.hpp"
