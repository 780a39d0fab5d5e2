#ifndef IQS_TESTS_REFERENCE_INFERENCE_H_
#define IQS_TESTS_REFERENCE_INFERENCE_H_

#include <vector>

#include "dictionary/data_dictionary.h"
#include "inference/engine.h"

namespace iqs {
namespace testing_util {

// The naive inference evaluator, kept as the oracle the indexed engine is
// differentially tested against. Forward re-matches every rule against
// every known fact on every fixpoint pass, Backward tests every target
// against every rule, and the backward statements are deduplicated by a
// quadratic scan. Answers, fact order and statement order are what
// InferenceEngine must reproduce byte for byte. No metrics, spans or
// governance checkpoints.
class ReferenceInferenceEngine {
 public:
  // `dictionary` must outlive the engine.
  explicit ReferenceInferenceEngine(const DataDictionary* dictionary)
      : dictionary_(dictionary), engine_(dictionary) {}

  Result<std::vector<Fact>> Forward(const QueryDescription& query,
                                    const RuleSet& rules) const;

  Result<std::vector<IntensionalStatement>> Backward(
      const QueryDescription& query, const std::vector<Fact>& targets,
      const RuleSet& rules) const;

  Result<IntensionalAnswer> InferWith(const QueryDescription& query,
                                      InferenceMode mode,
                                      const RuleSet& rules) const;

 private:
  std::vector<Fact> SeedFacts(const QueryDescription& query) const;
  bool ExpandTypeFacts(std::vector<Fact>* facts) const;

  const DataDictionary* dictionary_;
  // Contradiction detection is shared: it is not what the oracle checks.
  InferenceEngine engine_;
};

}  // namespace testing_util
}  // namespace iqs

#endif  // IQS_TESTS_REFERENCE_INFERENCE_H_
