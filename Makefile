GO ?= go
BIN := bin/adapipevet

.PHONY: all build cross vet test fuzz-smoke race bench-smoke figures observe serve-smoke loc ci clean

all: build

build:
	$(GO) build ./...

# cross keeps the portable loops compiling and vetted where they are the only
# path: internal/tensor's kernels, internal/recompute's knapsack row pass and
# internal/cpu's feature probe are amd64 assembly, so an arm64 vet of those
# packages (and the executor over tensor) and a 386 build of everything prove
# the fallbacks still stand on their own. The planner (internal/partition and
# internal/core) is vetted there too: arm64 fuses multiply-adds, which the
# scan cut's error margin is argued to cover (DESIGN §5). The 386 tests of the
# planner run Algorithm 1's row scan, whose Base + j·Stride index steps are
# 32-bit ints there, and the root plan digests on the portable knapsack path,
# the only one a 386 build has. The GOAMD64=v3 leg guards the other
# direction: the vector exp and tanh copy math.Exp's instructions and
# math.tanh's Go code rounding for rounding, which holds only while the
# compiler does not contract that Go code into FMAs where the CPU has them; the kernel, lane and loss tests must pass there too, on every
# kernel path the CPU has (avx512, avx2, generic). There is no GOAMD64=v4 leg:
# a v4 binary exits at start on a CPU without AVX-512, and the kernels pick
# their path at run time with GOAMD64 left at v1. (On amd64, go vet's asmdecl
# checks the assembly against its Go declarations.)
cross:
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/train ./internal/recompute ./internal/cpu ./internal/partition ./internal/core
	GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./internal/model ./internal/profile ./internal/schedule ./internal/partition ./internal/core .
	GOAMD64=v3 $(GO) test -run 'Kernel|Elementwise|Lanes|LossesUnchanged' ./internal/tensor ./internal/train

$(BIN): FORCE
	$(GO) build -o $(BIN) ./cmd/adapipevet

.PHONY: FORCE
FORCE:

# vet runs go vet plus the repo's own seven-analyzer suite (maporder,
# floatcmp, pipesync, errcheckcmd, ctxprop, lockguard, detrand) over every
# package, tests included, through its one driver: go vet -vettool, where the
# go command hands adapipevet one compilation unit at a time with gc export
# data. Both must be clean; the suite has no way to suppress a finding.
vet: $(BIN)
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(BIN)) ./...

test:
	$(GO) test ./...

# fuzz-smoke gives every fuzz target of the repo five seconds of real fuzzing
# (plain `go test` only replays their seed corpora). The targets are found,
# not listed: every `func FuzzX` in a test file git knows about or would add.
# -fuzz takes one target per package run, hence the loop.
fuzz-smoke:
	@set -e; for f in $$(git ls-files -co --exclude-standard '*_test.go' | xargs grep -l '^func Fuzz'); do \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$target (./$$(dirname $$f))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 5s ./$$(dirname $$f); \
		done; \
	done

# race exercises the concurrent packages under the race detector: the 1F1B
# executor (its panic cancellation included) and the tensor
# kernels under it, the simulator, the daemon and the two concurrency
# primitives (the compute-once cache and the cost store over it) in full, plus
# the planner's differential runner (every leg of every row, the concurrent
# and interrupted legs included) and its two PlanContext cancellation tests —
# run-filtered so the GPT-3-scale oracle and timing tests stay out of the slow
# race build.
race:
	$(GO) test -race ./internal/tensor/... ./internal/train/... ./internal/sim/... ./internal/serve/... ./internal/memo/... ./internal/coststore/...
	$(GO) test -race -run 'TestDifferential|TestPlanContext' ./internal/core/...

# bench-smoke keeps the kernel, executor and planner developer-loop rows
# alive: each BenchmarkTrainStep{,Recorded}/*, BenchmarkMatMul/*,
# BenchmarkElementwise/*, BenchmarkKnapsack/*, BenchmarkPlanSearch/*,
# BenchmarkReplan/*, BenchmarkSweepGrid/*, BenchmarkPartitionDP/{cut,uncut},
# BenchmarkAblationExactPartition (the one run of the exact partition solver
# over the planner's row view outside the unit tests) and
# BenchmarkSimulate{1F1B,Chimera}, with internal/sim's BenchmarkRun/*, row
# builds, runs once and (the train
# rows) checks its losses against the other save specs. go vet over bench/ proves the frozen harness still
# type-checks against the tensor and train entry points it calls. No
# wall-clock gate: speed is gated by the repo benchmark (throughput_ops_s @
# train_1f1b, op_p95_ms @ plan_cold) alone.
bench-smoke:
	$(GO) test -run '^$$' -bench 'TrainStep|MatMul|Elementwise|Knapsack|PlanSearch|Replan|SweepGrid|PartitionDP|AblationExactPartition|Simulate' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'Run' -benchtime 1x ./internal/sim
	$(GO) vet ./bench

# figures regenerates the three sub-second paper figures through their one
# producer, cmd/experiments (the internal/experiments tests check the shapes of
# all of them; `go run ./cmd/experiments -run all` rewrites EXPERIMENTS.md's
# numbers in about a minute).
figures:
	$(GO) run ./cmd/experiments -run fig2,table3,accuracy

# observe runs the observability demo end to end: plan, execute with the op
# recorder, simulate, and write both Chrome traces and metrics.prom under
# observe-out/. It fails if the measured trace or any export cannot be
# produced.
observe:
	$(GO) run ./examples/observe -dir observe-out

# serve-smoke exercises the adapiped daemon end to end from outside the
# process: build it, bind an ephemeral port, check /healthz, plan the same
# request twice asserting (via /metrics) that the repeat is a byte-identical
# cache hit with no extra search work, fetch the cold request's trace twice
# asserting byte-identical Chrome JSON whose phase spans cover >= 95% of the
# request wall, then SIGTERM and require a clean drain. The cold trace lands
# in servesmoke-trace.json, which CI uploads as an artifact.
serve-smoke:
	$(GO) build -o bin/adapiped ./cmd/adapiped
	$(GO) run ./cmd/servesmoke -daemon bin/adapiped -trace-out servesmoke-trace.json

# loc prints the non-test and test Go lines of every package directory
# (comments and blank lines included), then the three totals a change is
# judged by: the Go repo outside bench/, the test lines outside bench/ — so
# product code cannot hide in _test.go files — and the assembly (.s) lines
# outside bench/, counted apart so a kernel edit shows while the two Go totals
# stay comparable. Tracked files deleted from the work tree are listed twice
# (cached and deleted) and dropped by uniq -u.
loc:
	@{ git ls-files -co --exclude-standard '*.go' '*.s'; git ls-files -d '*.go' '*.s'; } | sort | uniq -u | grep -v '/testdata/' | xargs wc -l | awk ' \
		$$2 == "total" { next } \
		{ d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; inbench = d ~ /^bench(\/|$$)/; \
		  if ($$2 ~ /\.s$$/) { if (!inbench) asm += $$1; next } \
		  if ($$2 ~ /_test\.go$$/) { t[d] += $$1; if (!inbench) tests += $$1; next } \
		  n[d] += $$1; if (!inbench) repo += $$1 } \
		END { printf "%7s %7s  %s\n", "lines", "tests", "package"; \
		      for (d in n) printf "%7d %7d  %s\n", n[d], t[d], d | "sort -k3"; \
		      for (d in t) if (!(d in n)) printf "%7d %7d  %s\n", 0, t[d], d | "sort -k3"; close("sort -k3"); \
		      printf "%7d  repo outside bench/\n", repo; \
		      printf "%7d  test lines outside bench/\n", tests; \
		      printf "%7d  assembly lines outside bench/\n", asm }'

# ci is the full gate the GitHub Actions workflow runs.
ci: build cross vet test fuzz-smoke race bench-smoke figures observe serve-smoke

clean:
	rm -rf bin observe-out servesmoke-trace.json
