"""The atlas: every graph class on 0-7 vertices and every tree on 1-10
vertices, as graph6 lines.

``GRAPHS[n]`` and ``TREES[n]`` hold the classes on n vertices, separated
by spaces, each one the canonical relabeling (``canonical_relabel``) of
its class, in ascending ``canonical_form`` order.  The table was written
once by the enumerator of commit 3642938, which built each class on n
vertices by extending those on n - 1 and deduplicated canonical forms;
``graphs.enumerate_graphs`` and ``graphs.enumerate_trees`` read it, and
the enumeration tests check it against brute force, the class counts
and its own canonical forms.

If the canonical form ever changes, re-derive each entry from the old
one, with ``old`` its graphs:

    sorted({canonical_relabel(g) for g in old}, key=canonical_form)

Strings are raw because graph6 uses the backslash as a data byte.
"""

GRAPHS = {
    0: r"? ",
    1: r"@ ",
    2: r"A? A_ ",
    3: r"B? BG BW Bw ",
    4: r"C? C@ CB CF CJ CK CL CN C] C^ C~ ",
    5: (
        r"D?? D?C D?K D?[ D?{ D@K D@O D@S D@[ D@{ DBW DB[ DBk DB{ DC[ DFw DF{ "
        r"DIk DJ[ DJ{ DKK DK{ DLo DL{ DN{ DR[ D]{ D^{ D_K D`K D`[ Dbk Dr[ D~{ "
    ),
    6: (
        r"E??? E??G E??W E??w E?@w E?Bw E?CW E?C_ E?Cg E?Cw E?Dw E?Fw E?Ko "
        r"E?Kw E?LW E?Lw E?N? E?NG E?Nw E?Ow E?\o E?\w E?]o E?]w E?^o E?^w "
        r"E?`w E?dw E?~o E?~w E@HW E@JW E@Kw E@Lw E@NW E@Nw E@OW E@Pw E@Q? "
        r"E@Rw E@T_ E@Tw E@UW E@Ug E@Vw E@\w E@]w E@^w E@ow E@~o E@~w EAKw "
        r"EA_w EAlw EBXw EBZw EB\w EB^w EBj? EBnW EBnw EB~w ECDg ECLw EC\o "
        r"EC\w EC^w ED\w EDpw EENg EEWw EFxw EFz_ EFzw EF~w EG?W EGCW EGCw "
        r"EGLW EGUw EGdw EHNW EHQW EIKw EIMw EIlw EImo EInw EJ\w EJ^w EJaG "
        r"EJeg EJmw EJ~w EKCg EKKw EKLW EKNG EKNw EKYW EK]w EK~o EK~w ELrw "
        r"ELtw ELv_ EL~w EN~w EODw EOSw EPtw EQLw ER\w ER^w ES\w EWCW EYcw "
        r"E]]w E]~o E]~w E^~w E_?w E_Cg E_Cw E_Ko E_Kw E_Lw E_Nw E_]o E_]w "
        r"E`HW E`Kw E`Lw E`NW E`Nw E`\w E`]w E`^w EaKw Ebnw EcLw Ed\w EgCw "
        r"EhNW EiKw EiMw Ejmw EkKw Ek]w EoDw EoLW EpTw Er\w Er^w Es\w E~~w "
    ),
    7: (
        r"F???? F???G F???W F???w F??@w F??Bw F??Fw F??GW F??G_ F??Gg F??Gw "
        r"F??Hw F??Jw F??Nw F??Wo F??Ww F??XW F??Xw F??Z? F??ZG F??Zw F??^w "
        r"F??_w F??xo F??xw F??yo F??yw F??zo F??zw F??}O F??}W F??~o F??~w "
        r"F?@@w F?@Hw F?@zo F?@zw F?@|o F?@|w F?@~o F?@~w F?ABw F?AJw F?AZo "
        r"F?AZw F?B@o F?B@w F?B~o F?B~w F?CPW F?CRW F?CVW F?CWw F?CXw F?CZW "
        r"F?CZw F?C^? F?C^G F?C^W F?C^w F?C_W F?C`w F?Ca? F?Cbw F?Cfw F?Ch_ "
        r"F?Chw F?CiW F?Cig F?Cjw F?Cnw F?Cxw F?Cyw F?Czw F?C~w F?D_w F?Dzo "
        r"F?Dzw F?D|o F?D|w F?D~o F?D~w F?ERW F?EZw F?F@w F?FHw F?F~o F?F~w "
        r"F?GWw F?G}w F?H?w F?HXw F?IZw F?Kmg F?Kpw F?Krw F?KuW F?Kvw F?Kxw "
        r"F?Kzw F?K}w F?K~w F?LR? F?LZW F?LZw F?L[w F?L^w F?Lzw F?L|w F?L~w "
        r"F?NFw F?NN_ F?NNw F?N~o F?N~w F?OHg F?OXw F?Oxo F?Oxw F?Ozw F?O~w "
        r"F?Q@w F?QHw F?Qzo F?Qzw F?Sxw F?T`w F?Tdw F?Tlw F?UPW F?U`w F?Uhw "
        r"F?Uzw F?WZg F?W^g F?Wow F?YZg F?ZPw F?[~g F?\pw F?\r_ F?\rw F?\tw "
        r"F?\vw F?\zw F?\~w F?]pw F?]vw F?]}w F?]~w F?^rw F?^vw F?^~w F?_Jg "
        r"F?_Zw F?_yw F?_zo F?_zw F?`_w F?`zo F?`zw F?`~o F?`~w F?czw F?dzo "
        r"F?dzw F?d~w F?gZg F?gqw F?lrw F?lzw F?nRw F?nrw F?oPG F?oow F?opw "
        r"F?orw F?oxw F?ozw F?o~g F?ppo F?ppw F?p|w F?qrw F?s~g F?tpw F?v`w "
        r"F?wqg F?yRg F?|rg F?|tg F?|vg F?~rw F?~v_ F?~vg F?~vw F?~~w F@??W "
        r"F@?GW F@?Gw F@?XW F@?iw F@?mw F@@Hw F@@\O F@@\W F@AJw F@BHo F@BHw "
        r"F@CZW F@C^W F@CaW F@CeW F@CmW F@Eiw F@FHw F@GWw F@GYw F@G]w F@G}w "
        r"F@HKg F@HXw F@HYo F@HZw F@H[w F@H^w F@IZw F@J?w F@JZo F@JZw F@J^o "
        r"F@J^w F@KuW F@Kxw F@Kzw F@K}w F@K~w F@LAG F@LIg F@LYw F@Lzw F@L|w "
        r"F@L~w F@NE? F@NZw F@N^W F@N^w F@Naw F@New F@N~o F@N~w F@OGg F@OWw "
        r"F@OXW F@OZG F@OZw F@O^w F@OqW F@Oyw F@Pcw F@Pzo F@Pzw F@P~o F@P~w "
        r"F@Q?w F@QFw F@QHw F@QZw F@R~o F@R~w F@S^G F@TTW F@Tbw F@Tfw F@Thw "
        r"F@Tj_ F@Tlw F@Tzw F@T~w F@U^w F@Ue? F@Uhw F@Unw F@V~o F@V~w F@W}w "
        r"F@\zw F@\~w F@]~w F@^~w F@_iw F@hZw F@jZw F@lzw F@oxw F@ozw F@o~w "
        r"F@p|o F@p|w F@t|w F@v`w F@yqw F@~rw F@~vw F@~~w FA?Hw FA?gw FAC~W "
        r"FADhw FADlw FAEjw FAGXw FAH\w FAKxw FAKzw FAK~w FAMzw FAOxw FAO|w "
        r"FAStW FAS|w FA_Xw FA_xo FA_xw FA_~w FA`|o FA`|w FAchg FAcxw FAdhw "
        r"FAdlg FAdtW FAd|w FAf`w FAhXw FAlzw FAl~w FAoxw FB?GW FBHGw FBHKw "
        r"FBL^W FBO\W FBVlw FBWyw FBX\w FBXcw FBXzo FBXzw FBX~w FBY^G FBYmg "
        r"FBY}w FBZ~o FBZ~w FB\zw FB\~w FB]|w FB^~w FBaJw FBg}w FBj?w FBjFw "
        r"FBn^w FBn~w FB~~w FC?Jw FC?ZW FC@Hw FCCJG FCCZW FCDhw FCDjw FCDnw "
        r"FCFjo FCFjw FCGZw FCHGw FCHXw FCKzw FCLRW FCLVW FCLZw FCL^W FCLzw "
        r"FCL~w FCOPW FCOzw FCSjg FCWZg FCWyw FCXPw FCX\w FCYZw FC\pw FC\rw "
        r"FC\vw FC\zw FC\~w FC^rw FC^~w FC`zo FC`zw FCdjg FCdzw FClzw FCozw "
        r"FC~rw FDOgw FDPHw FDS~W FDXXw FDYZw FD\zw FD\~w FDhZw FDoig FDoqW "
        r"FDoyw FDpzo FDpzw FDp~w FDtjg FDtzw FE?HW FEDlW FEGZW FEG^W FEGgw "
        r"FEIiw FEJHw FEK~W FENjw FENnw FEOhw FEWxw FEWzw FEW~w FEYzw FE]vW "
        r"FE_jw FE`hw FEgzw FEohg FEoxw FEx|w FFHKW FFdjW FFjJw FFo~W FFphw "
        r"FFxzw FFx|w FFx~w FFzfw FFzn_ FFz~o FFz~w FF~~w FG??w FG?Gg FG?Gw "
        r"FG?Wo FG?Ww FG?Xw FG?Zw FG?^w FG?yo FG?yw FG@\o FG@\w FGAZo FGAZw "
        r"FGCPW FGCWw FGCXw FGCZW FGCZw FGC^W FGC^w FGCxw FGCyw FGCzw FGC~w "
        r"FGD\w FGDcw FGEZW FGEZw FGEzo FGEzw FGF@w FGFHw FGGWw FGK}w FGLZw "
        r"FGL^w FGOXw FGO\w FGQXw FGSxw FGS|w FGUzw FGU~w FG_Zw FG_yo FG_yw "
        r"FGcyw FGczw FGdPW FGd_w FGdzo FGdzw FGd~o FGd~w FGnRw FGnZw FGoow "
        r"FGs~g FGtpw FGttw FH?Gw FHCZW FHC^W FHEZW FHEiw FHFHw FHGWw FHGYw "
        r"FHG]w FHIYw FHK}w FHLYw FHNZw FHN^w FHOWw FHO[w FHOyw FHQZw FHQ^w "
        r"FHQ}o FHQ}w FHU}w FHuzw FI?Hw FI?Lw FI?XW FI?kw FIAHw FIC\W FICcW "
        r"FIChw FIClw FIH\w FIIXw FIKxw FIKzw FIK|w FIK~w FIMzw FIM~w FIOxw "
        r"FIO|w FIQ|o FIQ|w FIS|w FIU|w FI\tw FI_XW FIa@w FIe`w FIejw FIg}w "
        r"FIhXw FIh\w FIlzw FIl~w FImpw FImvw FImzw FIn~w FIoxw FIo|w FI~tw "
        r"FJ?KW FJHKw FJQ\W FJY}w FJ\zw FJ\~w FJ^~w FJaHw FJaNw FJehw FJenw "
        r"FJm~w FJn^W FJ~~w FK??W FK?GW FK?Hw FK?XW FK?}O FK?}W FK@ko FK@kw "
        r"FKCZW FKC_W FKChw FKCnw FKIZw FKKuW FKKxw FKK~w FKLZw FKL^w FKL|w "
        r"FKNNw FKN~o FKN~w FKOXw FKQHw FKSxw FKUhw FKUzw FKYXw FKY^w FK]~w "
        r"FKdzo FKdzw FKoxw FKp|w FKv`w FK~vw FK~~w FL?GW FLCmW FLN^W FL_iw "
        r"FLjZw FLoyw FLr~o FLr~w FLtzw FLt~w FLvfw FLvn_ FL~~w FMdhw FMoxw "
        r"FN~~w FO?Zw FO@Xo FO@Xw FOCRW FOCZW FOCZw FOCzw FODPW FODXw FOD_w "
        r"FODzo FODzw FOD~o FOD~w FOGYw FONZw FOOXw FOSxw FOSzw FOS~w FOUzw "
        r"FO\sw FOdzw FOlqw FOtpw FP?Iw FP@Gw FPCZW FPD^W FPDiw FPDmw FPFJw "
        r"FPGYw FPHYw FPH]w FPNZw FPdiw FPhYw FPpXw FPtzw FPt~w FQDhw FQGWw "
        r"FQGZw FQG}w FQHXw FQIZw FQKmg FQKzw FQK}w FQLzw FQL~w FQOxo FQOxw "
        r"FQShg FQSxw FQS|w FQlzw FROgw FRS~W FRW}w FRXXw FRX\w FR\zw FR\~w "
        r"FR^~w FSHZw FSLzw FSOzo FSOzw FSSzw FSThw FSWqw FS\rw FS\zw FS\~w "
        r"FTOiw FTTjw FTZZw FT\zw FUlzw FW?Wo FW?Ww FWCWw FWCXw FWCZw FWC^w "
        r"FWC}w FWDXw FWEZw FWUXw FXC]W FXN]w FYGWw FYK}w FYSxw FYS|w FY_Xw "
        r"FYcxw FYc~w FYd|w FZh[w F[CZW F[GYw F[NZw F[Szw F[dzw F\hYw F]QHw "
        r"F]Uhw F]]~w F]lzw F]oxw F]p|w F]~vw F]~~w F^~~w F_?@w F_?Hw F_?XW "
        r"F_?Xw F_?_w F_?xo F_?xw F_?zo F_?zw F_?~o F_?~w F_@|o F_@|w F_CPW "
        r"F_CXw F_C_W F_C`w F_Cbw F_Ch_ F_Chw F_Cjw F_Cnw F_Cxw F_Czw F_C~w "
        r"F_D|o F_D|w F_GWw F_G}w F_HXw F_IZw F_Kmg F_Kpw F_KqW F_Krw F_KuW "
        r"F_Kvw F_Kxw F_Kzw F_K}w F_K~w F_Lzw F_L|w F_L~w F_MJg F_N~o F_N~w "
        r"F_Oxw F_Sxw F_U`w F_Uhw F_Wow F_[~g F_\pw F_\tw F_]pw F_]vw F_]~w "
        r"F__zw F_czw F_gZg F_gqw F_lrw F_lzw F_nrw F_opw F_oxw F_|tg F`?Gw "
        r"F`?XW F`?iw F`@Hw F`AJw F`CZW F`C^W F`CaW F`Eiw F`FHw F`GWw F`GYw "
        r"F`G]w F`G}w F`HXw F`HZw F`H[w F`H^w F`IZw F`JZo F`JZw F`KuW F`Kxw "
        r"F`Kzw F`K}w F`K~w F`Lzw F`L|w F`L~w F`NZw F`N^w F`Naw F`N~o F`N~w "
        r"F`OXW F`QHw F`Thw F`Tlw F`Uhw F`W}w F`\zw F`\~w F`]~w F`^~w F`hZw "
        r"F`lzw F`oxw F`ozw F`p|w F`t|w F`v`w F`~rw FaGXw FaG_w FaKxw FaKzw "
        r"FaK~w FaMzw Fa_xo Fa_xw Fachg Facxw FbGiw FbGmw Fb]|w Fbg}w Fbn~w "
        r"FcDhw FcGZw FcHXw FcKzw FcLzw FcL~w Fc\pw Fclzw FdOgw FdS~W FdXXw "
        r"FdYZw Fd\zw Fd\~w FdhZw FeGgw FeK~W FeWxw Fegzw Ffx|w Fg?Xw FgCXw "
        r"FgCxw FgCzw FgC~w FgEzo FgEzw FgGWw FgK}w FgSxw FgS|w Fgczw Fh?Gw "
        r"FhEZW FhEiw FhFHw FhGWw FhGYw FhG]w FhIYw FhK}w FhNZw FhN^w Fhuzw "
        r"FiChw FiClw FiIXw FiKxw FiKzw FiK|w FiK~w FiMzw FiM~w Fie`w Fimpw "
        r"Fimzw FjaHw Fjehw Fjm~w Fk?Hw Fk?XW FkChw FkIZw FkKxw FkK~w FkL|w "
        r"FkSxw FkUhw FkYXw Fk]~w Fkoxw Fo?Zw Fo?yo Fo?yw FoCZW FoCZw FoCig "
        r"FoCyw FoCzw FoD_w FoDzo FoDzw FoD~o FoD~w FoLZw FoL^w FoOXw FoSxw "
        r"FoUzw Fo\sw Fodzw Fotpw FpCZW FpGYw FpHYo FpLIg FpLYw FpNZw FpOWw "
        r"FpOZw FpOyw FpQZw FpTzw FpT~w FqDhw FqKzw FqOxw FqS|w Fqlzw FrHGw "
        r"FrL^W FrWyw FrX\w Fr\zw Fr\~w Fr^~w FsLZW FsLZw FsLzw FsOzw Fs\rw "
        r"Fs\zw Fs\~w Ft\zw Ftpzw Fttzw Fvxzw Fw?Ww FwCWw FwCXw FwCZw FwCyw "
        r"FwEZw FwL[w FxLYw FxOWw FyS|w Fy_Xw Fycxw Fyd|w F{LZw F~~~w "
    ),
}

TREES = {
    1: r"@ ",
    2: r"A_ ",
    3: r"BW ",
    4: r"CF CL ",
    5: r"D?{ DC[ DKK ",
    6: r"E?Bw E?NG E?`w EA_w ECDg EKCg ",
    7: r"F??Fw F??}O F?ABw F?B@w F?Q@w F?_Jg F?`_w F@Q?w FCCJG FCOPW FKC_W ",
    8: (
        r"G???F{ G???~C G??CB{ G??E@{ G??EHw G??HmO G??u?[ G?@C@{ G?A?Js "
        r"G?AAHs G?AB?{ G?HC?{ G?Q?hS G?Q@_[ G?_BGw G?_GJc G?_J?k G?`?Pk "
        r"GA_G`K GCCGJC GCH?_[ GCOOHS GKC_GS "
    ),
    9: (
        r"H????B~ H????~a H???C@~ H???E?~ H???EC} H???F?^ H???MGy H??@e?N "
        r"H??AC?~ H??C?D| H??CAC| H??CB?^ H??CB_N H??E@C\ H??EH_L H??GPfC "
        r"H??aC?^ H?@C?Kx H?@C@_N H?A?AKy H?A?BC] H?A?GDx H?A?ICx H?A?J?Z "
        r"H?A?r?F H?AA?Gz H?AA@GZ H?AB?gJ H?CaC?N H?Q??ki H?Q?@cM H?Q?GOr "
        r"H?_?JGY H?_GBCU H?_GGDp H?_GJ?R H?_a?OV H?_a?oF H?`?OCt H?`?PGR "
        r"H?`?P_F HA__O_F HCCGGD` HCH?_CL HCOOGCh HCOOOGb HKC_GOB "
    ),
    10: (
        r"I??????~w I?????N{G I????A?^w I????B?Nw I????B@No I????B_Fw "
        r"I????B`Fo I????C\w_ I????FANO I???@b?Bw I???@fCB_ I???AA?Nw "
        r"I???C?@^g I???C?N[O I???C@@Ng I???C@_Fw I???C@`Fg I???C@oBw "
        r"I???E?`Fg I???E?bF_ I???E?w@w I???ECaFG I???ECoBg I???GJAMO "
        r"I???MGoAg I???Xb??w I??@AA?Fw I??@e?DAg I??AC?BNG I??AC?LKg "
        r"I??AC?oBw I??AC?w@w I??C?@BNO I??C?@`Fo I??C?@pBo I??C?C@^G "
        r"I??C?D@NG I??C?D_FW I??C?DoBW I??C?p_@w I??CA?ANW I??CA?aFW "
        r"I??CAC`FG I??CB?BFG I??CB?PBg I??CB?QBW I??GGOpo_ I??PAA?Bw "
        r"I??aC?W@w I?@C??FMO I?@C??pBo I?@C?CCMW I?@C?ccAW I?@C@?EEW "
        r"I?@C@_H@g I?A??DEMO I?A??DaFO I?A?B?UAo I?A?BCSAg I?A?BCW@g "
        r"I?A?G@BMO I?A?G@`Eo I?A?GC@]G I?A?GD@MG I?A?GD_EW I?A?Gp_?w "
        r"I?A?J?QAW I?A@A?CEw I?A@A?SAw I?AA??dEo I?AA?G@Mg I?AA?GBMG "
        r"I?AA?G`Eg I?AA?GaEW I?AA?GoAw I?AA@_K?w I?CaC?BBG I?Q??CTI_ "
        r"I?Q??CqBO I?Q?GOPGg I?Q?GOo?w I?Q@?GGCw I?_?GHaEO I?_G?DaDO "
        r"I?_GG@`Co I?_GGC@[G I?_GGD_CW I?_PA?G@w I?_a??X@o I?_a?O@Dg "
        r"I?_a?OP@g I?`?O?dCo I?`?O?p@o I?`?OC@LG I?`?OCcCW I?`?OCo@W "
        r"I?`?OGAKW I?`@?OS?w I@Q?GOO?w IA_G_CCGW ICCGGC@WG ICH?_C@BG "
        r"ICOOGC@IG ICOOGOAGW ICO__OA@W IKC_GO@?g "
    ),
}
