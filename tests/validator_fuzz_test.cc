// Property-based validator tests: over seeded random graphs (R-MAT and
// Erdős–Rényi-ish) plus pathological shapes (star, two components,
// self-loops), the OutputValidator must accept the reference output
// verbatim and reject *any* single-vertex perturbation of it. That is the
// validator's whole contract — "checks the outcome of the benchmark to
// ensure correctness" — stated as properties instead of hand-picked
// examples, so tolerance bugs (a perturbation inside an accidentally-wide
// epsilon) or missing-field bugs (a perturbed vertex the comparison never
// reads) fail across many graphs, not just one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/rmat.h"
#include "graph/graph.h"
#include "harness/validator.h"
#include "ref/algorithms.h"

namespace gly::harness {
namespace {

Graph RandomUndirected(VertexId n, size_t m, uint64_t seed) {
  EdgeList edges(n);
  Rng rng(seed);
  while (edges.num_edges() < m) {
    VertexId a = static_cast<VertexId>(rng.NextBounded(n));
    VertexId b = static_cast<VertexId>(rng.NextBounded(n));
    if (a != b) edges.Add(a, b);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

Graph RmatGraph(uint32_t scale, uint64_t seed) {
  datagen::RmatConfig config;
  config.scale = scale;
  config.edge_factor = 8;
  config.seed = seed;
  EdgeList edges = datagen::RmatGenerator(config).Generate().ValueOrDie();
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

/// Hub 0 with n-1 leaves: maximal degree skew, diameter 2.
Graph StarGraph(VertexId n) {
  EdgeList edges(n);
  for (VertexId v = 1; v < n; ++v) edges.Add(0, v);
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

/// Two rings with no edge between them: vertices in the second component
/// are unreachable from the BFS source, exercising the "infinity"
/// distance and the multi-component CONN labels.
Graph TwoComponentGraph(VertexId half) {
  EdgeList edges(2 * half);
  for (VertexId v = 0; v < half; ++v) {
    edges.Add(v, (v + 1) % half);
    edges.Add(half + v, half + (v + 1) % half);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

/// A ring where every vertex also has a self-loop.
Graph SelfLoopGraph(VertexId n) {
  EdgeList edges(n);
  for (VertexId v = 0; v < n; ++v) {
    edges.Add(v, (v + 1) % n);
    edges.Add(v, v);
  }
  return GraphBuilder::Undirected(edges).ValueOrDie();
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

/// The fuzz corpus: seeded random graphs plus the pathological shapes.
std::vector<NamedGraph> Corpus() {
  std::vector<NamedGraph> corpus;
  for (uint64_t seed : {11u, 22u, 33u}) {
    corpus.push_back({"rmat-" + std::to_string(seed), RmatGraph(7, seed)});
  }
  for (uint64_t seed : {44u, 55u, 66u}) {
    corpus.push_back(
        {"random-" + std::to_string(seed), RandomUndirected(200, 600, seed)});
  }
  corpus.push_back({"star", StarGraph(64)});
  corpus.push_back({"two-component", TwoComponentGraph(40)});
  corpus.push_back({"self-loop", SelfLoopGraph(32)});
  return corpus;
}

const std::vector<AlgorithmKind> kKinds = {
    AlgorithmKind::kBfs, AlgorithmKind::kConn, AlgorithmKind::kPr};

/// Perturbs one vertex of `output`: +1 on the integer value for BFS/CONN
/// (-1 on BFS's kUnreachable = INT64_MAX sentinel, so an unreachable
/// vertex is still perturbed, into a finite distance, without signed
/// overflow),
/// a 1e-3 relative bump on the PR score (far outside the validator's 1e-9
/// tolerance, far inside what a "roughly right" buggy engine produces).
void PerturbVertex(AlgorithmKind kind, size_t vertex, AlgorithmOutput* out) {
  if (kind == AlgorithmKind::kPr) {
    out->vertex_scores[vertex] *= 1.001;
  } else {
    int64_t& value = out->vertex_values[vertex];
    value = value == kUnreachable ? value - 1 : value + 1;
  }
}

TEST(ValidatorFuzzTest, AcceptsReferenceOutputOnEveryGraph) {
  for (const NamedGraph& g : Corpus()) {
    for (AlgorithmKind kind : kKinds) {
      AlgorithmParams params;
      AlgorithmOutput reference = ref::Run(g.graph, kind, params);
      Status status = ValidateOutput(g.graph, kind, params, reference);
      EXPECT_TRUE(status.ok())
          << g.name << "/" << AlgorithmKindName(kind) << ": "
          << status.ToString();
    }
  }
}

TEST(ValidatorFuzzTest, RejectsEverySingleVertexPerturbation) {
  Rng rng(0xF00D);
  for (const NamedGraph& g : Corpus()) {
    for (AlgorithmKind kind : kKinds) {
      AlgorithmParams params;
      const AlgorithmOutput reference = ref::Run(g.graph, kind, params);
      const size_t n = kind == AlgorithmKind::kPr
                           ? reference.vertex_scores.size()
                           : reference.vertex_values.size();
      ASSERT_GT(n, 0u) << g.name << "/" << AlgorithmKindName(kind);
      // A handful of random victims per (graph, kind), plus the endpoints
      // (first/last vertex are where off-by-one comparisons slip).
      std::vector<size_t> victims = {0, n - 1};
      for (int i = 0; i < 6; ++i) victims.push_back(rng.NextBounded(n));
      // BFS: also an unreachable vertex, if any (the sentinel perturbation).
      const auto& values = reference.vertex_values;
      auto unreached = std::find(values.begin(), values.end(), kUnreachable);
      if (kind == AlgorithmKind::kBfs && unreached != values.end()) {
        victims.push_back(static_cast<size_t>(unreached - values.begin()));
      }
      for (size_t vertex : victims) {
        AlgorithmOutput mutated = reference;
        PerturbVertex(kind, vertex, &mutated);
        Status status = ValidateOutput(g.graph, kind, params, mutated);
        EXPECT_TRUE(status.IsValidationFailed())
            << g.name << "/" << AlgorithmKindName(kind) << " vertex "
            << vertex << ": perturbed output was accepted ("
            << status.ToString() << ")";
      }
    }
  }
}

}  // namespace
}  // namespace gly::harness
