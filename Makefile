# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: all build test race vet ravet fuzz-smoke bench-smoke fmt check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

vet:
	$(GO) vet ./...

# ravet is the project-specific analyzer suite (cmd/ravet): wire
# deadlines, pool discipline, error wrapping, SWAR/scalar lane-constant
# parity, determinism, goroutine tracking. It runs standalone here; CI
# also exercises the `go vet -vettool` integration path.
ravet:
	$(GO) run ./cmd/ravet ./...

# Ten seconds per fuzz target — the CI smoke budget, not a soak.
fuzz-smoke:
	$(GO) test -fuzz=FuzzApplyWord -fuzztime=10s ./internal/ra/
	$(GO) test -fuzz=FuzzBatchGenerators -fuzztime=10s ./internal/awari/
	$(GO) test -fuzz=FuzzTableRead -fuzztime=10s ./internal/db/
	$(GO) test -fuzz=FuzzZdbRoundtrip -fuzztime=10s ./internal/zdb/
	$(GO) test -fuzz=FuzzHuffDecode -fuzztime=10s ./internal/zdb/
	$(GO) test -fuzz=FuzzEncodeBlock -fuzztime=10s ./internal/zdb/
	$(GO) test -fuzz=FuzzSpaceCodec -fuzztime=10s ./internal/index/
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/server/
	$(GO) test -fuzz=FuzzSpillRoundtrip -fuzztime=10s ./internal/oocore/
	$(GO) test -fuzz=FuzzDeltaDecode -fuzztime=10s ./internal/oocore/
	$(GO) test -fuzz=FuzzManifestDecode -fuzztime=10s ./internal/oocore/
	$(GO) test -fuzz=FuzzMeshFrame -fuzztime=10s ./internal/remote/
	$(GO) test -fuzz=FuzzHostEnginesOnGraph -fuzztime=10s ./internal/graphgame/
	$(GO) test -fuzz=FuzzWireEnginesOnGraph -fuzztime=10s ./internal/graphgame/
	$(GO) test -fuzz=FuzzMeshEngineOnGraph -fuzztime=10s ./internal/remote/

# The repository benchmark's own smoke test (bench/ is a separate module):
# every workload, untraced and traced, at tiny sizes.
bench-smoke:
	cd bench && $(GO) test ./...

fmt:
	gofmt -l -w .

check: build vet ravet test
