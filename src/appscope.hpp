// appscope.hpp — umbrella header for the appscope library.
//
// Downstream users can include this single header to get the full public
// API; fine-grained headers remain available for faster builds:
//
//   #include <appscope.hpp>
//   auto dataset = appscope::core::TrafficDataset::generate(
//       appscope::synth::ScenarioConfig::example_scale());
//   auto study = appscope::core::run_study(dataset);
#pragma once

// util — RNG, CSV, CLI, tables, errors
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

// la — dense linear algebra, FFT, eigensolvers
#include "la/eigen.hpp"
#include "la/fft.hpp"
#include "la/matrix.hpp"
#include "la/vector_ops.hpp"

// stats
#include "stats/bootstrap.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/distribution.hpp"
#include "stats/regression.hpp"
#include "stats/zipf.hpp"

// ts — time-series analysis
#include "ts/autocorrelation.hpp"
#include "ts/calendar.hpp"
#include "ts/cluster_quality.hpp"
#include "ts/hierarchical.hpp"
#include "ts/kmeans.hpp"
#include "ts/kshape.hpp"
#include "ts/peaks.hpp"
#include "ts/sbd.hpp"
#include "ts/time_series.hpp"
#include "ts/znorm.hpp"

// geo — synthetic country
#include "geo/commune.hpp"
#include "geo/grid_map.hpp"
#include "geo/point.hpp"
#include "geo/spatial_index.hpp"
#include "geo/territory.hpp"
#include "geo/territory_io.hpp"
#include "geo/urbanization.hpp"

// workload — services, profiles, population, mobility
#include "workload/catalog.hpp"
#include "workload/mobility.hpp"
#include "workload/population.hpp"
#include "workload/service.hpp"
#include "workload/spatial_profile.hpp"
#include "workload/temporal_profile.hpp"

// net — measurement pipeline
#include "net/base_station.hpp"
#include "net/dpi.hpp"
#include "net/gateway.hpp"
#include "net/gtp.hpp"
#include "net/probe.hpp"
#include "net/simulator.hpp"
#include "net/types.hpp"

// synth — scenario generation
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "synth/sinks.hpp"

// io — binary dataset snapshot store
#include "io/format.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_reader.hpp"
#include "io/snapshot_writer.hpp"

// core — the paper's analyses
#include "core/category_analysis.hpp"
#include "core/compare.hpp"
#include "core/dataset.hpp"
#include "core/dataset_io.hpp"
#include "core/rank_analysis.hpp"
#include "core/report.hpp"
#include "core/slicing.hpp"
#include "core/spatial_analysis.hpp"
#include "core/study.hpp"
#include "core/temporal_analysis.hpp"
#include "core/urbanization_analysis.hpp"
