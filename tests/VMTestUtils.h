//===- tests/VMTestUtils.h - Shared program-building helpers ----*- C++ -*-===//
//
// Part of jdrag test suite.
//
//===----------------------------------------------------------------------===//

#ifndef JDRAG_TESTS_VMTESTUTILS_H
#define JDRAG_TESTS_VMTESTUTILS_H

#include "ir/ProgramBuilder.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <string>

namespace jdrag::testutil {

/// FNV-1a 64-bit over \p Bytes, continuing from \p H. The digest the
/// committed golden files (tests/data/golden/) pin byte streams with;
/// test-only -- nothing in jdrag itself depends on it.
inline std::uint64_t fnv1a64(std::span<const std::byte> Bytes,
                             std::uint64_t H = 0xcbf29ce484222325ull) {
  for (std::byte B : Bytes) {
    H ^= std::to_integer<std::uint8_t>(B);
    H *= 0x100000001b3ull;
  }
  return H;
}

/// "<byte length>:<16 hex digits of fnv1a64>", the golden-file form of
/// one byte stream.
inline std::string lengthAndDigest(std::span<const std::byte> Bytes) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%zu:%016llx", Bytes.size(),
                static_cast<unsigned long long>(fnv1a64(Bytes)));
  return Buf;
}

/// Reads a golden file: one case per line, the case name first, then
/// its space-separated fields. Blank lines and `#` comments are skipped.
/// Returns name -> whole line (empty map if the file is unreadable).
inline std::map<std::string, std::string>
readGoldenFile(const std::string &Path) {
  std::map<std::string, std::string> Lines;
  std::ifstream In(Path);
  for (std::string L; std::getline(In, L);) {
    if (L.empty() || L[0] == '#')
      continue;
    Lines[L.substr(0, L.find(' '))] = L;
  }
  return Lines;
}

/// A ProgramBuilder pre-wired with the standard jdrag natives exposed as
/// static methods on a library class "Sys":
///   Sys.emit(int), Sys.emitD(double), Sys.read(int) -> int,
///   Sys.touch(ref), Sys.inputCount() -> int
struct TestProgramBuilder {
  ir::ProgramBuilder PB;
  ir::MethodId Emit, EmitD, Read, Touch, InputCount;

  TestProgramBuilder() {
    using ir::ValueKind;
    auto EmitN =
        PB.declareNative("jdrag.emitResult", {ValueKind::Int}, ValueKind::Void);
    auto EmitDN = PB.declareNative("jdrag.emitResultD", {ValueKind::Double},
                                   ValueKind::Void);
    auto ReadN =
        PB.declareNative("jdrag.readInput", {ValueKind::Int}, ValueKind::Int);
    auto TouchN =
        PB.declareNative("jdrag.touch", {ValueKind::Ref}, ValueKind::Void);
    auto CountN = PB.declareNative("jdrag.inputCount", {}, ValueKind::Int);
    ir::ClassBuilder Sys = PB.beginClass("Sys", PB.objectClass(),
                                         /*IsLibrary=*/true);
    Emit = Sys.addNativeMethod("emit", EmitN);
    EmitD = Sys.addNativeMethod("emitD", EmitDN);
    Read = Sys.addNativeMethod("read", ReadN);
    Touch = Sys.addNativeMethod("touch", TouchN);
    InputCount = Sys.addNativeMethod("inputCount", CountN);
  }

  /// Finishes and verifies; aborts the test on verifier failure.
  ir::Program finishVerified() {
    ir::Program P = PB.finish();
    std::string Err;
    bool OK = ir::verifyProgram(P, &Err);
    EXPECT_TRUE(OK) << Err;
    return P;
  }
};

} // namespace jdrag::testutil

#endif // JDRAG_TESTS_VMTESTUTILS_H
