#ifndef TPM_TESTS_CORE_DSL_CORPUS_H_
#define TPM_TESTS_CORE_DSL_CORPUS_H_

#include <vector>

namespace tpm {
namespace testing {

/// The DSL source of every world in the hand-designed corpus of
/// dsl_corpus_test.cc, for suites that check other analyses on it.
std::vector<const char*> DslCorpusWorlds();

}  // namespace testing
}  // namespace tpm

#endif  // TPM_TESTS_CORE_DSL_CORPUS_H_
