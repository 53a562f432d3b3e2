//===- tests/test_assembler.cpp - textual assembler tests -----------------===//

#include "ir/Assembler.h"
#include "ir/Disassembler.h"
#include "vm/VirtualMachine.h"

#include <gtest/gtest.h>

using namespace jdrag;
using namespace jdrag::ir;
using namespace jdrag::vm;

namespace {

const char *CounterSource = R"jasm(
; A tiny program: allocate a counter, bump it in a loop, emit the total.
native jdrag.emitResult (int) void

class Sys extends java/lang/Object library
  nativemethod emit jdrag.emitResult
end

class Counter extends java/lang/Object
  field value int private
  method <init> (int start) void
    aload this
    invokespecial java/lang/Object.<init>
    aload this
    iload start
    putfield Counter.value
    ret
  end
  method bump () void
    aload this
    aload this
    getfield Counter.value
    iconst 1
    iadd
    putfield Counter.value
    ret
  end
  method get () int
    aload this
    getfield Counter.value
    iret
  end
end

class Main extends java/lang/Object
  method main () void static
    local c ref
    local i int
    new Counter
    dup
    iconst 40
    invokespecial Counter.<init>
    astore c
    iconst 2
    istore i
  loop:
    iload i
    ifle done
    aload c
    invokevirtual Counter.bump
    iload i
    iconst 1
    isub
    istore i
    goto loop
  done:
    aload c
    invokevirtual Counter.get
    invokestatic Sys.emit
    ret
  end
end

main Main.main
)jasm";

std::vector<std::int64_t> runAssembled(const Program &P) {
  VirtualMachine VM(P, {});
  std::string Err;
  EXPECT_EQ(VM.run(&Err), Interpreter::Status::Ok) << Err;
  return VM.outputs();
}

} // namespace

TEST(Assembler, AssemblesAndRuns) {
  std::string Err;
  auto P = assembleProgram(CounterSource, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_TRUE(P->findClass("Counter").isValid());
  EXPECT_EQ(runAssembled(*P), (std::vector<std::int64_t>{42}));
}

TEST(Assembler, NamedLocalsAndParamsResolve) {
  std::string Err;
  auto P = assembleProgram(CounterSource, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  const MethodInfo &Ctor =
      P->methodOf(P->findDeclaredMethod(P->findClass("Counter"), "<init>"));
  EXPECT_EQ(Ctor.numLocals(), 2u); // this + start
  EXPECT_TRUE(Ctor.IsConstructor);
}

TEST(Assembler, HandlersAndExceptions) {
  const char *Src = R"jasm(
native jdrag.emitResult (int) void
class Sys extends java/lang/Object library
  nativemethod emit jdrag.emitResult
end
class Main extends java/lang/Object
  method boom () void static
    new java/lang/Throwable
    dup
    invokespecial java/lang/Throwable.<init>
    athrow
  end
  method main () void static
  tstart:
    invokestatic Main.boom
  tend:
    goto done
  caught:
    pop
    iconst 7
    invokestatic Sys.emit
  done:
    ret
    handler tstart tend caught java/lang/Throwable
  end
end
main Main.main
)jasm";
  std::string Err;
  auto P = assembleProgram(Src, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(runAssembled(*P), (std::vector<std::int64_t>{7}));
}

TEST(Assembler, ForwardClassReferencesWork) {
  // A's method references class B which is defined later in the file.
  const char *Src = R"jasm(
native jdrag.emitResult (int) void
class Sys extends java/lang/Object library
  nativemethod emit jdrag.emitResult
end
class A extends java/lang/Object
  method make () ref static
    new B
    dup
    invokespecial B.<init>
    aret
  end
end
class B extends java/lang/Object
  field tag int
  method <init> () void
    aload this
    invokespecial java/lang/Object.<init>
    aload this
    iconst 9
    putfield B.tag
    ret
  end
end
class Main extends java/lang/Object
  method main () void static
    invokestatic A.make
    getfield B.tag
    invokestatic Sys.emit
    ret
  end
end
main Main.main
)jasm";
  std::string Err;
  auto P = assembleProgram(Src, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(runAssembled(*P), (std::vector<std::int64_t>{9}));
}

TEST(AssemblerErrors, ReportLineNumbers) {
  struct Case {
    const char *Src;
    const char *Expect;
  };
  const Case Cases[] = {
      {"class A extends NoSuch\nend\nmain A.x\n", "unknown superclass"},
      {"class A extends java/lang/Object\n  method f () void static\n"
       "    bogus\n    ret\n  end\nend\nmain A.f\n",
       "unknown instruction"},
      {"class A extends java/lang/Object\n  method f () void static\n"
       "    goto nowhere\n  end\nend\nmain A.f\n",
       "never bound"},
      {"class A extends java/lang/Object\n  method f () void static\n"
       "    aload nosuch\n    ret\n  end\nend\nmain A.f\n",
       "unknown local"},
      {"class A extends java/lang/Object\n  method f () void static\n"
       "    getfield A.missing\n    ret\n  end\nend\nmain A.f\n",
       "unknown field"},
      {"class A extends java/lang/Object\nend\n", "missing `main"},
      {"class A extends java/lang/Object\n  method f () void static\n"
       "    pop\n    ret\n  end\nend\nmain A.f\n",
       "verification failed"},
  };
  for (const Case &C : Cases) {
    std::string Err;
    auto P = assembleProgram(C.Src, &Err);
    EXPECT_FALSE(P.has_value()) << C.Src;
    EXPECT_NE(Err.find(C.Expect), std::string::npos)
        << "expected '" << C.Expect << "' in: " << Err;
  }
}

TEST(Assembler, DisassemblerNamesMatchMnemonics) {
  // Every mnemonic the disassembler prints is accepted by the assembler
  // (shared opcode name table).
  std::string Err;
  auto P = assembleProgram(CounterSource, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  std::string Text = disassembleProgram(*P);
  EXPECT_NE(Text.find("invokevirtual Counter.bump"), std::string::npos);
  EXPECT_NE(Text.find("putfield Counter.value"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Diagnostic sweep: every rejection path names the problem and carries a
// line number. One case per distinct assembler error message.
//===----------------------------------------------------------------------===//

struct DiagCase {
  const char *Name;
  const char *Src;
  const char *Expect;
};

class AssemblerDiagnostics : public testing::TestWithParam<DiagCase> {};

TEST_P(AssemblerDiagnostics, RejectsWithMessageAndLine) {
  const DiagCase &C = GetParam();
  std::string Err;
  auto P = assembleProgram(C.Src, &Err);
  EXPECT_FALSE(P.has_value()) << C.Src;
  EXPECT_NE(Err.find(C.Expect), std::string::npos)
      << "expected '" << C.Expect << "' in: " << Err;
  // Every diagnostic except the missing-main summary is positional.
  if (std::string(C.Expect) != "missing `main") {
    EXPECT_NE(Err.find("line "), std::string::npos) << Err;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AssemblerDiagnostics,
    testing::Values(
        DiagCase{"DuplicateMethod",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n    ret\n  end\n"
                 "  method f (int x) void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "duplicate method"},
        DiagCase{"DuplicateLocal",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    local v int\n    local v int\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "duplicate local"},
        DiagCase{"LabelBoundTwice",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "  l:\n  l:\n    ret\n  end\nend\nmain A.f\n",
                 "bound twice"},
        DiagCase{"UnknownNative",
                 "class A extends java/lang/Object\n"
                 "  nativemethod f no.such\n"
                 "end\nmain A.f\n",
                 "unknown native"},
        DiagCase{"BadArrayKind",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    iconst 1\n    newarray long\n    pop\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad array kind"},
        DiagCase{"BadParameterKind",
                 "class A extends java/lang/Object\n"
                 "  method f (long x) void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad parameter kind"},
        DiagCase{"VoidParameterRejected",
                 "class A extends java/lang/Object\n"
                 "  method f (void x) void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad parameter kind"},
        DiagCase{"MissingReturnKind",
                 "class A extends java/lang/Object\n"
                 "  method f ()\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "return kind"},
        DiagCase{"UnknownMethodFlag",
                 "class A extends java/lang/Object\n"
                 "  method f () void sttaic\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "unknown method flag"},
        DiagCase{"UnknownFieldFlag",
                 "class A extends java/lang/Object\n"
                 "  field x int sttaic\n"
                 "  method f () void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "unknown field flag"},
        DiagCase{"BadFieldKind",
                 "class A extends java/lang/Object\n"
                 "  field x void\n"
                 "  method f () void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad field kind"},
        DiagCase{"UnknownClassInNew",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    new Ghost\n    pop\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "unknown class"},
        DiagCase{"UnknownMethodRef",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    invokestatic A.ghost\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "unknown method"},
        DiagCase{"MethodRefWithoutDot",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    invokestatic ghost\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "must be Class.method"},
        DiagCase{"FieldRefWithoutDot",
                 "class A extends java/lang/Object\n"
                 "  field x int static\n"
                 "  method f () void static\n"
                 "    getstatic x\n    pop\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "must be Class.field"},
        DiagCase{"MissingOperand",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    iconst\n    pop\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "needs an operand"},
        DiagCase{"UnknownClassMember",
                 "class A extends java/lang/Object\n"
                 "  banana\n"
                 "end\nmain A.f\n",
                 "unknown class member"},
        DiagCase{"ClassMissingEnd",
                 "class A extends java/lang/Object\n"
                 "  field x int\n",
                 "missing `end`"},
        DiagCase{"MethodBodyMissingEnd",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    ret\n",
                 "missing `end`"},
        DiagCase{"HandlerUsage",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    handler a b\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "usage: handler"},
        DiagCase{"LocalUsage",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    local v\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "usage: local"},
        DiagCase{"BadLocalKind",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n"
                 "    local v void\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad local kind"},
        DiagCase{"MainUnresolvable",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n    ret\n  end\n"
                 "end\nmain A.ghost\n",
                 "unknown method"},
        DiagCase{"MainUsage",
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n    ret\n  end\n"
                 "end\nmain A.f extra\n",
                 "usage: main"},
        DiagCase{"NativeBadReturn",
                 "native x.y (int) long\n"
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad native return kind"},
        DiagCase{"NativeBadParam",
                 "native x.y (long) void\n"
                 "class A extends java/lang/Object\n"
                 "  method f () void static\n    ret\n  end\n"
                 "end\nmain A.f\n",
                 "bad native parameter kind"},
        DiagCase{"ClassUsage",
                 "class A java/lang/Object\nend\nmain A.f\n",
                 "usage: class"}),
    [](const testing::TestParamInfo<DiagCase> &I) {
      // gtest lists each case with a raw byte dump of its DiagCase, whose
      // pointer bytes move with the address-space layout of every run.
      // Padding short names to 12 characters keeps the first 100 characters
      // of the listed name clear of those bytes, so name lists cut at that
      // width compare equal between runs.
      std::string N(I.param.Name);
      if (N.size() < 12)
        N.resize(12, '_');
      return N;
    });
