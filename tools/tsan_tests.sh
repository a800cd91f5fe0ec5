# The ThreadSanitizer stage: the test binaries it builds and the ctest filter
# it runs (the concurrent runtime, the reply cache, lock-free routing,
# concurrent walks through balancers and rate limiters, and the journal
# writer). Sourced by tools/check.sh and the CI tsan job, so the
# two run the same tests.
TSAN_TARGETS="runtime_test sim_test probe_test trace_test"
TSAN_FILTER='Metrics|Pacer|SharedStopSet|SharedSubnetCache|CacheHammer|CampaignRuntime|BatchProbing|RetryEngine|VtimeScheduler|Routing|NetworkConcurrency|TraceDeterminism|TraceWriter'
