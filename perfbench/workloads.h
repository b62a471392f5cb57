// The benchmark's three workloads, one per scenario of the paper: the
// §6.3 XQuery-only shopping cart (`cart`), the Figure 2 client-side
// Elsevier reference browser (`browse`) and the Figure 3 maps/weather
// mash-up (`mashup`). Each workload generates every input from the seed
// (catalog, corpus, city set, per-user scripts), deploys its pages and
// remote sources on a PageServer's backend, and checks a session's
// outputs against values it computed itself — never against the engine.

#ifndef XQIB_PERFBENCH_WORKLOADS_H_
#define XQIB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/server.h"

namespace perfbench {

// splitmix64: a tiny, portable generator (std:: distributions are
// implementation-defined, so the same seed must not go through them).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();                      // [0, 1)
  uint64_t Below(uint64_t n);            // [0, n)
  int Between(int lo, int hi);           // [lo, hi]
  double Exponential(double mean);

 private:
  uint64_t state_;
};

uint64_t Mix64(uint64_t x);
uint64_t HashString(const std::string& s);

// Zipf(s) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

// Skew of every popularity choice (products bought, articles clicked,
// cities searched): web request popularity is Zipf-like with exponents
// of 0.64-0.83 across the traces in Breslau et al., "Web Caching and
// Zipf-like Distributions" (INFOCOM 1999); 0.8 is near the top of that
// range.
constexpr double kZipfExponent = 0.8;

// One user: a page visit followed by a scripted number of events with
// think times, then the session is closed.
struct UserScript {
  uint64_t index = 0;
  std::string page_url;
  std::vector<xqib::server::SessionEvent> events;
  std::vector<double> think_ms;  // gap before each event (open loop)
};

// A user's output-check state, advanced event by event on the session's
// draining thread (where reading the DOM and the plug-in is safe).
struct UserModel {
  std::vector<std::string> cart;  // cart: product ids, newest first
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  // Registers the workload's pages and remote sources on `server`'s
  // backend. Called once per PageServer (the loaded run and the serial
  // replay each deploy the same generated content).
  virtual xqib::Status Deploy(xqib::server::PageServer* server) const = 0;

  // User `index`'s script; a pure function of (seed, index).
  virtual UserScript MakeUser(uint64_t index) const = 0;

  // Checks the outcome of `script.events[i]` on `session` (called right
  // after its dispatch, on the draining thread). Returns "" when the
  // output equals the benchmark's own expectation, else a message.
  virtual std::string CheckEvent(xqib::server::Session* session,
                                 const UserScript& script, size_t i,
                                 UserModel* model) const = 0;
  // Checks the session's final state after its last executed event.
  virtual std::string CheckFinal(xqib::server::Session* session,
                                 const UserScript& script,
                                 const UserModel& model) const = 0;
};

// Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // XQIB_PERFBENCH_WORKLOADS_H_
