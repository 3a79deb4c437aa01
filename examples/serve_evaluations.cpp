// Serving walkthrough: the evaluation service end to end, in one process.
//   1. Start an svc::Server on a Unix-domain socket (the same engine as
//      the intooa-served daemon), backed by a persistent evaluation store.
//   2. Open an api::Session on it and evaluate a topology remotely.
//   3. Show the determinism contract: the served record bytes are
//      byte-identical to the same evaluation run in-process.
//   4. Ask again — the answer now comes from the warm memory tier.
//   5. Drain the server gracefully (what SIGTERM does to intooa-served).
//
// Build & run:  cmake --build build && ./build/examples/serve_evaluations
//
// Out of process, the same conversation is two commands (continuation
// lines indented):
//   ./build/src/svc/intooa-served --listen unix:/tmp/intooa.sock
//       --store /tmp/eval-store.bin
//   ./build/src/svc/intooa-svc-client --connect unix:/tmp/intooa.sock
//       --spec S-1 --topology 5 --count 4 --verify

#include <cstdio>
#include <filesystem>
#include <thread>

#include "api/session.hpp"
#include "core/eval_key.hpp"
#include "sizing/sizer.hpp"
#include "store/record_io.hpp"
#include "store/store.hpp"
#include "svc/server.hpp"
#include "util/rng.hpp"

int main() {
  using namespace intooa;

  // --- 1. A server on a Unix socket, with a persistent warm store. -------
  const std::string socket_path =
      (std::filesystem::temp_directory_path() / "intooa-example.sock")
          .string();
  const std::string store_path =
      (std::filesystem::temp_directory_path() / "intooa-example-store.bin")
          .string();
  std::filesystem::remove(store_path);

  svc::ServerConfig config;
  config.address = svc::Address::parse("unix:" + socket_path);
  config.threads = 2;
  config.store = store::EvalStore::open(store_path);
  svc::Server server(std::move(config));
  server.bind();  // endpoint is live before any client dials
  std::thread server_thread([&server] { server.run(); });

  // --- 2. A session: one remote evaluation. ------------------------------
  api::SessionConfig session_config;
  session_config.evaluators = {server.config().address};
  api::Session session(std::move(session_config));

  svc::EvalRequest request;
  request.spec = circuit::spec_by_name("S-1");
  request.sizing.init_points = 3;  // tiny budget to keep the demo quick
  request.sizing.iterations = 3;
  request.sizing.candidates = 32;
  request.topology_index = 5;

  const api::Expected<api::EvaluationOutcome> served =
      session.evaluations().evaluate(request);
  if (!served.ok()) {
    std::fprintf(stderr, "remote eval failed: %s\n",
                 served.error().message.c_str());
    server.begin_drain();
    server_thread.join();
    return 1;
  }
  const core::EvalRecord& record = served.value().record.record;
  std::printf("remote eval: topology #%llu, FoM=%.2f, %zu simulations\n",
              static_cast<unsigned long long>(request.topology_index),
              record.sized.best.fom, record.sized.simulations);

  // --- 3. Byte-identical to the in-process evaluation. -------------------
  const sizing::EvalContext ctx = request.eval_context();
  const core::EvalKeyContext keys(ctx, request.sizing);
  const circuit::Topology topology =
      circuit::Topology::from_index(request.topology_index);
  const core::EvalKey key = keys.key_for(topology);
  util::Rng sizing_rng(key.digest);  // the deterministic-sizing discipline
  core::EvalRecord local;
  local.topology = topology;
  local.sized = sizing::Sizer(ctx, request.sizing).size(topology, sizing_rng);
  std::printf("byte-identical to in-process: %s\n",
              store::encode_record(key, local) ==
                      served.value().record_payload
                  ? "yes"
                  : "NO (bug!)");

  // --- 4. The second ask is served warm. ---------------------------------
  const api::Expected<api::EvaluationOutcome> again =
      session.evaluations().evaluate(request);
  std::printf("second ask served from: %s\n",
              again.ok() && again.value().served_from == svc::ServedFrom::Memory
                  ? "memory cache"
                  : "elsewhere");

  // --- 5. Graceful drain (SIGTERM's path in intooa-served). --------------
  session.close();
  server.begin_drain();
  server_thread.join();
  const svc::ServerStats stats = server.stats();
  std::printf("drained: %llu requests, %llu ok (store persisted at %s)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.responses_ok),
              store_path.c_str());
  return 0;
}
