// modbd: the long-running MODB server. Builds the planes relation (the
// paper's running example) with a deterministic seed, keeps it and its
// moving-point R-tree resident in a modb::Db, and serves typed
// QueryRequests over the frame protocol (docs/PROTOCOL.md) until
// SIGTERM/SIGINT, then drains in-flight queries and exits 0.
//
//   modbd [--port=0] [--host=127.0.0.1] [--thread-budget=64]
//         [--queue-capacity=64] [--flights=64] [--seed=99]
//         [--live=NAME] [--store=PATH]
//         [--merge-interval-ms=500] [--seal-units=0]
//         [--idle-timeout-ms=30000] [--io-timeout-ms=10000]
//
// The timeout flags feed ServerOptions: idle bounds the wait for a
// frame to start (idle/slow-loris connections are reaped), io bounds
// mid-frame reads and reply writes. <= 0 disables either.
//
// --live=NAME additionally registers an empty live relation NAME
// (schema {id: string, trail: mpoint}) as an ingest target for
// kMutation frames, and starts a maintenance thread that runs one
// Db::MergeLive round every --merge-interval-ms. --store=PATH attaches
// a VersionedSpillStore for durability: an existing store is recovered
// (printing "modbd recovered epoch E (N objects)"), a missing one is
// created, and the SIGTERM drain seals every tail and commits one
// final epoch before exit — restart with the same --store resumes
// bitwise-identically.
//
// Prints exactly one line "modbd listening on HOST:PORT" once ready —
// scripts (verify.sh) parse the ephemeral port from it.

#include <sys/stat.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "db/modb.h"
#include "gen/flights_gen.h"
#include "serve/server.h"
#include "storage/recovery.h"

namespace {

bool ParseInt(const char* arg, const char* flag, long* out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  char* end = nullptr;
  *out = std::strtol(arg + n + 1, &end, 10);
  return end != nullptr && *end == '\0';
}

bool ParseStr(const char* arg, const char* flag, std::string* out) {
  const std::size_t n = std::strlen(flag);
  if (std::strncmp(arg, flag, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  modb::serve::ServerOptions options;
  long flights = 64;
  long seed = 99;
  long merge_interval_ms = 500;
  long seal_units = 0;
  std::string live_name;
  std::string store_path;
  for (int i = 1; i < argc; ++i) {
    long v;
    std::string s;
    if (ParseInt(argv[i], "--port", &v)) {
      options.port = int(v);
    } else if (ParseStr(argv[i], "--host", &s)) {
      options.host = s;
    } else if (ParseInt(argv[i], "--thread-budget", &v)) {
      options.thread_budget = v;
    } else if (ParseInt(argv[i], "--queue-capacity", &v)) {
      options.queue_capacity = std::size_t(v < 0 ? 0 : v);
    } else if (ParseInt(argv[i], "--flights", &v)) {
      flights = v;
    } else if (ParseInt(argv[i], "--seed", &v)) {
      seed = v;
    } else if (ParseStr(argv[i], "--live", &s)) {
      live_name = s;
    } else if (ParseStr(argv[i], "--store", &s)) {
      store_path = s;
    } else if (ParseInt(argv[i], "--merge-interval-ms", &v)) {
      merge_interval_ms = v < 1 ? 1 : v;
    } else if (ParseInt(argv[i], "--seal-units", &v)) {
      seal_units = v < 0 ? 0 : v;
    } else if (ParseInt(argv[i], "--idle-timeout-ms", &v)) {
      options.idle_timeout_ms = int(v);
    } else if (ParseInt(argv[i], "--io-timeout-ms", &v)) {
      options.io_timeout_ms = int(v);
    } else {
      std::fprintf(stderr,
                   "usage: modbd [--port=0] [--host=127.0.0.1] "
                   "[--thread-budget=64] [--queue-capacity=64] "
                   "[--flights=64] [--seed=99] [--live=NAME] "
                   "[--store=PATH] "
                   "[--merge-interval-ms=500] [--seal-units=0] "
                   "[--idle-timeout-ms=30000] [--io-timeout-ms=10000]\n");
      return 2;
    }
  }
  if (!store_path.empty() && live_name.empty()) {
    std::fprintf(stderr, "modbd: --store requires --live=NAME\n");
    return 2;
  }

  // Block the shutdown signals before any thread starts, so they are
  // delivered to sigwait below and nowhere else.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  modb::FlightsOptions gen;
  gen.num_flights = int(flights);
  gen.seed = std::uint64_t(seed);
  modb::Result<modb::Relation> planes = modb::GeneratePlanes(gen);
  if (!planes.ok()) {
    std::fprintf(stderr, "modbd: generating planes: %s\n",
                 planes.status().ToString().c_str());
    return 1;
  }

  // Declared before the Db so it outlives the live relation it backs.
  std::optional<modb::VersionedSpillStore> store;
  modb::Db db;
  if (modb::Status s = db.Register(*std::move(planes)); !s.ok()) {
    std::fprintf(stderr, "modbd: %s\n", s.ToString().c_str());
    return 1;
  }
  if (modb::Status s = db.BuildIndex("planes", "flight"); !s.ok()) {
    std::fprintf(stderr, "modbd: %s\n", s.ToString().c_str());
    return 1;
  }

  if (!live_name.empty()) {
    modb::ingest::LiveOptions live;
    if (seal_units > 0) live.seal_units = std::size_t(seal_units);
    if (modb::Status s = db.RegisterLive(live_name, live); !s.ok()) {
      std::fprintf(stderr, "modbd: %s\n", s.ToString().c_str());
      return 1;
    }
    if (!store_path.empty()) {
      modb::Result<modb::VersionedSpillStore> opened =
          FileExists(store_path)
              ? modb::VersionedSpillStore::Open(store_path)
              : modb::VersionedSpillStore::Create(store_path);
      if (!opened.ok()) {
        std::fprintf(stderr, "modbd: opening store %s: %s\n",
                     store_path.c_str(),
                     opened.status().ToString().c_str());
        return 1;
      }
      store.emplace(std::move(*opened));
      if (modb::Status s = db.AttachLiveStore(live_name, &*store); !s.ok()) {
        std::fprintf(stderr, "modbd: attaching store: %s\n",
                     s.ToString().c_str());
        return 1;
      }
      if (store->NumRoots() > 0) {
        std::printf("modbd recovered epoch %llu (%zu objects)\n",
                    (unsigned long long)store->epoch(),
                    store->NumRoots() - 1);
        std::fflush(stdout);
      }
    }
  }

  modb::serve::Server server(&db, options);
  if (modb::Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "modbd: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("modbd listening on %s:%d\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  // LSM maintenance: one background round per interval compacts the
  // live relation's delta into its base off the lock. Failures are
  // non-fatal (the next round retries).
  std::mutex merge_mu;
  std::condition_variable merge_cv;
  bool merge_stop = false;
  std::thread merge_thread;
  if (!live_name.empty()) {
    merge_thread = std::thread([&] {
      std::unique_lock lock(merge_mu);
      while (!merge_stop) {
        merge_cv.wait_for(lock,
                          std::chrono::milliseconds(merge_interval_ms),
                          [&] { return merge_stop; });
        if (merge_stop) return;
        lock.unlock();
        (void)db.MergeLive(live_name);
        lock.lock();
      }
    });
  }

  int sig = 0;
  sigwait(&sigs, &sig);
  std::printf("modbd: received %s, draining\n",
              sig == SIGTERM ? "SIGTERM" : "SIGINT");
  std::fflush(stdout);
  server.Stop();
  if (merge_thread.joinable()) {
    {
      std::lock_guard lock(merge_mu);
      merge_stop = true;
    }
    merge_cv.notify_all();
    merge_thread.join();
  }
  if (!live_name.empty()) {
    // Seal + final commit AFTER the server stopped: no in-flight ingest
    // can race the drain epoch, so restart recovers exactly this state.
    if (modb::Status s = db.DrainLive(live_name); !s.ok()) {
      std::fprintf(stderr, "modbd: draining %s: %s\n", live_name.c_str(),
                   s.ToString().c_str());
      return 1;
    }
    if (store.has_value()) {
      std::printf("modbd: drained %s at epoch %llu\n", live_name.c_str(),
                  (unsigned long long)store->epoch());
    }
  }
  std::printf("modbd: stopped cleanly\n");
  return 0;
}
