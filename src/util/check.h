/// \file check.h
/// \brief Invariant-checking macros for programmer errors.
///
/// PDB_CHECK aborts on violated invariants (always on, including release
/// builds — the cost is negligible next to inference work and database bugs
/// are far cheaper caught loudly). PDB_DCHECK compiles out in NDEBUG builds.
/// PDB_ASSERT is for checks too expensive for production (component
/// disjointness sweeps): it is compiled in only
/// when the build sets -DPDB_ASSERTIONS=ON (see the top-level CMake option),
/// which CI exercises in a dedicated Debug job.

#ifndef PDB_UTIL_CHECK_H_
#define PDB_UTIL_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace pdb::internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "PDB_CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

}  // namespace pdb::internal

#define PDB_CHECK(cond)                                         \
  do {                                                          \
    if (!(cond)) {                                              \
      ::pdb::internal::CheckFailed(__FILE__, __LINE__, #cond);  \
    }                                                           \
  } while (false)

#ifdef NDEBUG
#define PDB_DCHECK(cond) \
  do {                   \
  } while (false)
#else
#define PDB_DCHECK(cond) PDB_CHECK(cond)
#endif

#ifdef PDB_ASSERTIONS
#define PDB_ASSERT(cond) PDB_CHECK(cond)
#else
#define PDB_ASSERT(cond) \
  do {                   \
  } while (false)
#endif

#endif  // PDB_UTIL_CHECK_H_
