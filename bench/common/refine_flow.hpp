#pragma once
// Shared Sec. IV-C refinement flow used by the Table IV and Table V
// benches: train WL-GP models with one INTO-OA campaign on S-5, produce
// trusted sizings for the library designs C1 [19] and C2 [20], and refine
// each with the gradient-guided single-slot procedure.

#include "campaign/campaign.hpp"
#include "core/refine.hpp"

namespace intooa::bench {

/// Everything the refinement benches report.
struct RefinementFlow {
  sizing::SizedResult c1_trusted;  ///< trusted sizing of C1
  sizing::SizedResult c2_trusted;  ///< trusted sizing of C2
  core::RefineResult c1;           ///< C1 -> R1
  core::RefineResult c2;           ///< C2 -> R2
};

/// Runs the full flow for spec "S-5" with the given campaign protocol
/// (one model-training campaign run; refinement budget 40 simulations per
/// attempt as in the paper). A non-null `store` serves the model-training
/// campaign's topology evaluations from / persists them to the shared
/// evaluation store; a non-null `remote` additionally shards store misses
/// across the --remote service endpoints.
RefinementFlow run_refinement_flow(
    const campaign::CampaignParams& params,
    std::shared_ptr<store::EvalStore> store = nullptr,
    std::shared_ptr<svc::ClientPool> remote = nullptr);

}  // namespace intooa::bench
