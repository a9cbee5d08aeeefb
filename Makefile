# Entry points for the checks CI runs; `make lint` is the one to run
# before pushing.

GO ?= go

.PHONY: all build test lint fmt vet

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# cmd/coflowbench is its own module, so ./... never reaches it: vet and
# lint run inside it too.
vet:
	$(GO) vet ./...
	cd cmd/coflowbench && $(GO) vet ./...

# lint runs the repository's own analysis suite (see internal/analysis
# and cmd/coflowlint): the determinism, telemetry, and cancellation
# contracts. Zero findings is the merge bar.
lint:
	$(GO) run ./cmd/coflowlint ./...
	cd cmd/coflowbench && $(GO) run repro/cmd/coflowlint ./...
