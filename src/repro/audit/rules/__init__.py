"""Built-in repo-specific audit rules.

Importing this package registers every rule with the engine registry in
:mod:`repro.audit.lint`.  The shipped set (IDs are stable; see the README
rule table):

========  ======================  ========================================
ID        name                    invariant (established by)
========  ======================  ========================================
AUD101    bulk-loop               bulk paths stay vectorized (PRs 1-4)
AUD102    ambient-nondeterminism  deterministic modules read no wall clock
                                  or ambient RNG (PRs 1-4, 7)
AUD103    fsync-before-replace    persistence fsyncs before os.replace
                                  (PRs 6-7)
AUD104    capacity-context        capacity errors carry occupancy context
                                  (PR 6)
AUD105    swallowed-exception     no bare/silent exception swallowing in
                                  service code (PR 7)
AUD106    bulk-values-validation  bulk insert APIs validate keys/values
                                  like the point APIs (PR 3)
AUD107    stable-sort             bulk/deterministic modules sort through
                                  gpusim.sorting.stable_argsort, not
                                  lexsort or a stable argsort
========  ======================  ========================================
"""

from . import api, determinism, errors, persistence, sorting, vectorization

__all__ = ["api", "determinism", "errors", "persistence", "sorting", "vectorization"]
