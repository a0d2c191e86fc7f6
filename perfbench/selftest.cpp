#include <iostream>

#include "workloads.h"

namespace perfbench {

void SelfTest::accepts(const std::string& what, const std::function<void(Outcome&)>& check) {
  Outcome out;
  check(out);
  const bool ok = out.correct();
  failures_ += ok ? 0 : 1;
  std::cout << (ok ? "ok    " : "FAIL  ") << "accepts " << what << '\n';
  for (const std::string& w : out.wrong) std::cout << "        " << w << '\n';
}

void SelfTest::rejects(const std::string& what, const std::function<void(Outcome&)>& check) {
  Outcome out;
  check(out);
  const bool ok = !out.correct();
  failures_ += ok ? 0 : 1;
  std::cout << (ok ? "ok    " : "FAIL  ") << "rejects " << what
            << (ok ? " (" + out.wrong.front() + ")" : "") << '\n';
}

int run_selftest(const Args& args) {
  SelfTest t;
  selftest_cli_workloads(args, t);
  selftest_serve_workloads(args, t);
  return t.failures();
}

}  // namespace perfbench
