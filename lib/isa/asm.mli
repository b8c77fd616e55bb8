(** Textual assembler.

    Grammar (one statement per line; [#] starts a comment):
    {v
    label:
      mov   rd, (imm|reg)
      add   rd, rs, (imm|reg)        # likewise sub mul div rem and or xor shl shr
      load  rd, [rs(+|-)disp]
      store [rs(+|-)disp], rv
      prefetch [rs(+|-)disp]
      br cond rs, (imm|reg), label   # cond in eq ne lt le gt ge
      jmp   label
      call  label
      ret
      yield | syield | cyield [rs(+|-)disp]
      guard [rs(+|-)disp]
      aissue [rs(+|-)disp]
      await rd
      opmark | nop | halt
    v}
    [parse] returns the assembled program; [Program.pp] is the matching
    disassembler ([parse] and [Program.pp] round-trip). *)

exception Parse_error of int * string
(** Line number (1-based) and message. Syntax errors and label defects
    (duplicate label, branch to an undefined label) carry the line of
    the offending statement; residual assembly errors use line 0. *)

val parse : string -> Program.t
