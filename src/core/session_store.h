// Content fingerprints behind the engine's session-cache keys and the
// service's request-deduplication keys.

#ifndef CSM_CORE_SESSION_STORE_H_
#define CSM_CORE_SESSION_STORE_H_

#include <cstdint>

#include "relational/table.h"

namespace csm {

/// FNV-1a style 64-bit fold with avalanche; the mixing primitive behind
/// every fingerprint below (exposed so the service can derive request
/// deduplication keys from the same family).
uint64_t MixFingerprint(uint64_t h, uint64_t v);

/// Content fingerprint of a database: name, schemas and every cell value.
/// Two databases with the same fingerprint yield the same sessions, so
/// caches key on it rather than on object identity (callers often rebuild
/// equal Database values between calls).
uint64_t FingerprintDatabase(const Database& db);

}  // namespace csm

#endif  // CSM_CORE_SESSION_STORE_H_
