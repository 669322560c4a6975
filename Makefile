# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build fmt-check vet test race loc bench bench-adaptive bench-compressed

all: fmt-check vet build test

build:
	$(GO) build ./...

# Fail if any file is not gofmt-formatted (CI's Format gate).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "files need gofmt:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Non-test Go lines per package and in total, as `wc -l` counts them. The
# benchmark/ directory is the measuring instrument, not the system, and is
# left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# Engine benchmarks with allocation accounting: BFS and PageRank on
# RMAT-scale-16 (adaptive WCC and SSSP beside adaptive BFS), Batch over 64 sources (BFS on RMAT-16, SSSP on a road
# lattice; side by side and one after another), the span kernels beside
# their SyncLocks twins (ns/edge), sparse-push SSSP on a 512x512 road lattice at 1
# and 2 workers (us/iter, gang loops per iteration — 0 once every iteration
# runs on the caller — and parks and joins per gang loop) with the frontier
# builder's Add underneath it (ns/add) and the pull step's SetWord
# (ns/word), plus the out-of-core streamed PageRank; then what comes before
# the first iteration: the binary loader (MB/s) and the adjacency builders
# (ns/edge).
bench:
	$(GO) test -run '^$$' -bench 'BFS|WCC|Batch|PageRank|Span|SSSP|FrontierBuilder' -benchmem ./internal/core/ ./internal/graph/ ./internal/oocore/
	$(GO) test -run '^$$' -bench 'ReadBinary|WriteBinary|BuildAdjacency' -benchmem ./internal/storage/ ./internal/prep/

# Adaptive-planner cases only: auto BFS/PageRank against their fixed
# counterparts (the fixed-vs-auto comparison of the acceptance criterion).
bench-adaptive:
	$(GO) test -run '^$$' -bench 'Auto|PushPull|PullIter' -benchmem ./internal/core/

# Compressed-store cases: fixed-width cell encode and decode (ns/edge per
# offset width) and the version-3 (compressed segment) store against the
# version-1 streamed baseline, warm and, on Linux, with the page cache
# dropped before every pass.
bench-compressed:
	$(GO) test -run '^$$' -bench 'CellEncode|DecodeCell' -benchmem ./internal/graph/
	$(GO) test -run '^$$' -bench 'V2|StreamedPageRank|StreamPass' -benchmem ./internal/oocore/
