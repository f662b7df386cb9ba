GO ?= go
BIN := bin

.PHONY: all build test race lint vet gusvet fuzz-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the repo's own analyzer suite (gusvet, always available —
# it builds from this tree) and then the third-party linters when their
# pinned binaries are installed. CI installs them; locally the targets
# degrade to a notice instead of failing on a missing tool.
lint: vet gusvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2023.1.7)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@v1.1.3)"; \
	fi

vet:
	$(GO) vet ./...

# gusvet builds the in-tree analyzer driver and runs it over every
# package through the standard vettool protocol.
gusvet: $(BIN)/gusvet
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/gusvet ./...

$(BIN)/gusvet: FORCE
	$(GO) build -o $(BIN)/gusvet ./cmd/gusvet

FORCE:

# fuzz-smoke gives each checked-in fuzz target a short coverage-guided
# run on top of its seed corpus (the seeds alone run in plain `make test`).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=15s ./internal/sqlparse
	$(GO) test -run=^$$ -fuzz=FuzzSegmentDecode -fuzztime=15s ./internal/segment
	$(GO) test -run=^$$ -fuzz=FuzzSubsumption -fuzztime=15s ./internal/synopsis
	$(GO) test -run=^$$ -fuzz=FuzzOrderAwareMoments -fuzztime=15s ./internal/estimator
	$(GO) test -run=^$$ -fuzz=FuzzFilterMatchesScalar -fuzztime=15s ./internal/expr

clean:
	rm -rf $(BIN)
