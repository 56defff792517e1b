// Auto-generated by imagen-rtl for pipeline `every op` (40x30 @ 16 bpp)
// Style: Ours. Do not edit.


module imagen_sram_1p #(
    parameter DEPTH = 512,
    parameter WIDTH = 16,
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en,
    input  wire           we,
    input  wire [AW-1:0]  addr,
    input  wire [WIDTH-1:0] wdata,
    output reg  [WIDTH-1:0] rdata
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en) begin
            if (we) mem[addr] <= wdata;
            rdata <= mem[addr];
        end
    end
endmodule

module imagen_sram_2p #(
    parameter DEPTH = 512,
    parameter WIDTH = 16,
    parameter AW = 9
) (
    input  wire           clk,
    input  wire           en_a,
    input  wire           we_a,
    input  wire [AW-1:0]  addr_a,
    input  wire [WIDTH-1:0] wdata_a,
    output reg  [WIDTH-1:0] rdata_a,
    input  wire           en_b,
    input  wire [AW-1:0]  addr_b,
    output reg  [WIDTH-1:0] rdata_b
);
    reg [WIDTH-1:0] mem [0:DEPTH-1];
    always @(posedge clk) begin
        if (en_a) begin
            if (we_a) mem[addr_a] <= wdata_a;
            rdata_a <= mem[addr_a];
        end
        if (en_b) rdata_b <= mem[addr_b];
    end
endmodule
module stage_smooth (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = (((((((-32'sd5)) == 0) ? 0 : ((((((win0[0]) * (32'sd3))) - (((win0[8]) <<< (32'sd2))))) / ((-32'sd5))))) < ((-32'sd100))) ? ((-32'sd100)) : (((((((-32'sd5)) == 0) ? 0 : ((((((win0[0]) * (32'sd3))) - (((win0[8]) <<< (32'sd2))))) / ((-32'sd5))))) > ((((win0[4]) > (32'sd50)) ? (win0[4]) : (32'sd50)))) ? ((((win0[4]) > (32'sd50)) ? (win0[4]) : (32'sd50))) : (((((-32'sd5)) == 0) ? 0 : ((((((win0[0]) * (32'sd3))) - (((win0[8]) <<< (32'sd2))))) / ((-32'sd5)))))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_edge (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    input  wire signed [15:0] win1 [0:1],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = ((((((((((win0[1]) < (win1[1])) ? 1 : 0)) != 0) ? (((((((((win0[7]) - (win1[0]))) < 0) ? (-(((win0[7]) - (win1[0])))) : (((win0[7]) - (win1[0]))))) < ((-win0[3]))) ? ((((((win0[7]) - (win1[0]))) < 0) ? (-(((win0[7]) - (win1[0])))) : (((win0[7]) - (win1[0]))))) : ((-win0[3])))) : (((((win0[5]) + (32'sd7))) >>> (32'sd1))))) + ((((win0[4]) <= (win1[0])) ? 1 : 0)))) - ((((win1[0]) > ((-32'sd2))) ? 1 : 0)));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module stage_out (
    input  wire clk,
    input  wire en,
    input  wire signed [15:0] win0 [0:8],
    input  wire signed [15:0] win1 [0:0],
    output reg  signed [15:0] pixel_out
);
    wire signed [31:0] result = (((((((win0[1]) >= ((-32'sd3))) ? 1 : 0)) + ((((((win1[0]) == (32'sd0)) ? 1 : 0)) * ((((win0[7]) != (win0[4])) ? 1 : 0)))))) + ((((((win1[0]) - (32'sd1))) == 0) ? 0 : (((((((win0[3]) * ((-32'sd2)))) > ((((win0[5]) < 0) ? (-(win0[5])) : (win0[5])))) ? (((win0[3]) * ((-32'sd2)))) : ((((win0[5]) < 0) ? (-(win0[5])) : (win0[5]))))) / (((win1[0]) - (32'sd1)))))));
    always @(posedge clk) begin
        if (en) pixel_out <= result[15:0];
    end
endmodule

module linebuf_src (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 6 physical rows over 12 blocks (1 rows/block, 1 ports)
    wire [31:0] wphys = wrow % 6;
    wire [31:0] rphys = rrow % 6;
    wire [31:0] wblk = wphys * 2 + (wcol * 16) / 512;
    wire [31:0] rblk = rphys * 2 + (rcol * 16) / 512;
    wire [4:0] waddr = ((wcol * 16) % 512) / 16;
    wire [4:0] raddr = ((rcol * 16) % 512) / 16;
    wire signed [15:0] rdata_blk [0:11];
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk0 (
        .clk(clk),
        .en((wen && wblk == 0) || (ren && rblk == 0)),
        .we(wen && wblk == 0),
        .addr((wen && wblk == 0) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[0])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk1 (
        .clk(clk),
        .en((wen && wblk == 1) || (ren && rblk == 1)),
        .we(wen && wblk == 1),
        .addr((wen && wblk == 1) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[1])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk2 (
        .clk(clk),
        .en((wen && wblk == 2) || (ren && rblk == 2)),
        .we(wen && wblk == 2),
        .addr((wen && wblk == 2) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[2])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk3 (
        .clk(clk),
        .en((wen && wblk == 3) || (ren && rblk == 3)),
        .we(wen && wblk == 3),
        .addr((wen && wblk == 3) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[3])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk4 (
        .clk(clk),
        .en((wen && wblk == 4) || (ren && rblk == 4)),
        .we(wen && wblk == 4),
        .addr((wen && wblk == 4) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[4])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk5 (
        .clk(clk),
        .en((wen && wblk == 5) || (ren && rblk == 5)),
        .we(wen && wblk == 5),
        .addr((wen && wblk == 5) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[5])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk6 (
        .clk(clk),
        .en((wen && wblk == 6) || (ren && rblk == 6)),
        .we(wen && wblk == 6),
        .addr((wen && wblk == 6) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[6])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk7 (
        .clk(clk),
        .en((wen && wblk == 7) || (ren && rblk == 7)),
        .we(wen && wblk == 7),
        .addr((wen && wblk == 7) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[7])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk8 (
        .clk(clk),
        .en((wen && wblk == 8) || (ren && rblk == 8)),
        .we(wen && wblk == 8),
        .addr((wen && wblk == 8) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[8])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk9 (
        .clk(clk),
        .en((wen && wblk == 9) || (ren && rblk == 9)),
        .we(wen && wblk == 9),
        .addr((wen && wblk == 9) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[9])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk10 (
        .clk(clk),
        .en((wen && wblk == 10) || (ren && rblk == 10)),
        .we(wen && wblk == 10),
        .addr((wen && wblk == 10) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[10])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk11 (
        .clk(clk),
        .en((wen && wblk == 11) || (ren && rblk == 11)),
        .we(wen && wblk == 11),
        .addr((wen && wblk == 11) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[11])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_smooth (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 6 physical rows over 12 blocks (1 rows/block, 1 ports)
    wire [31:0] wphys = wrow % 6;
    wire [31:0] rphys = rrow % 6;
    wire [31:0] wblk = wphys * 2 + (wcol * 16) / 512;
    wire [31:0] rblk = rphys * 2 + (rcol * 16) / 512;
    wire [4:0] waddr = ((wcol * 16) % 512) / 16;
    wire [4:0] raddr = ((rcol * 16) % 512) / 16;
    wire signed [15:0] rdata_blk [0:11];
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk0 (
        .clk(clk),
        .en((wen && wblk == 0) || (ren && rblk == 0)),
        .we(wen && wblk == 0),
        .addr((wen && wblk == 0) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[0])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk1 (
        .clk(clk),
        .en((wen && wblk == 1) || (ren && rblk == 1)),
        .we(wen && wblk == 1),
        .addr((wen && wblk == 1) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[1])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk2 (
        .clk(clk),
        .en((wen && wblk == 2) || (ren && rblk == 2)),
        .we(wen && wblk == 2),
        .addr((wen && wblk == 2) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[2])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk3 (
        .clk(clk),
        .en((wen && wblk == 3) || (ren && rblk == 3)),
        .we(wen && wblk == 3),
        .addr((wen && wblk == 3) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[3])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk4 (
        .clk(clk),
        .en((wen && wblk == 4) || (ren && rblk == 4)),
        .we(wen && wblk == 4),
        .addr((wen && wblk == 4) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[4])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk5 (
        .clk(clk),
        .en((wen && wblk == 5) || (ren && rblk == 5)),
        .we(wen && wblk == 5),
        .addr((wen && wblk == 5) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[5])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk6 (
        .clk(clk),
        .en((wen && wblk == 6) || (ren && rblk == 6)),
        .we(wen && wblk == 6),
        .addr((wen && wblk == 6) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[6])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk7 (
        .clk(clk),
        .en((wen && wblk == 7) || (ren && rblk == 7)),
        .we(wen && wblk == 7),
        .addr((wen && wblk == 7) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[7])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk8 (
        .clk(clk),
        .en((wen && wblk == 8) || (ren && rblk == 8)),
        .we(wen && wblk == 8),
        .addr((wen && wblk == 8) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[8])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk9 (
        .clk(clk),
        .en((wen && wblk == 9) || (ren && rblk == 9)),
        .we(wen && wblk == 9),
        .addr((wen && wblk == 9) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[9])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk10 (
        .clk(clk),
        .en((wen && wblk == 10) || (ren && rblk == 10)),
        .we(wen && wblk == 10),
        .addr((wen && wblk == 10) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[10])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk11 (
        .clk(clk),
        .en((wen && wblk == 11) || (ren && rblk == 11)),
        .we(wen && wblk == 11),
        .addr((wen && wblk == 11) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[11])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module linebuf_edge (
    input  wire clk,
    input  wire wen,
    input  wire [31:0] wrow,
    input  wire [31:0] wcol,
    input  wire signed [15:0] wdata,
    input  wire ren,
    input  wire [31:0] rrow,
    input  wire [31:0] rcol,
    output wire signed [15:0] rdata
);
    // 4 physical rows over 8 blocks (1 rows/block, 1 ports)
    wire [31:0] wphys = wrow % 4;
    wire [31:0] rphys = rrow % 4;
    wire [31:0] wblk = wphys * 2 + (wcol * 16) / 512;
    wire [31:0] rblk = rphys * 2 + (rcol * 16) / 512;
    wire [4:0] waddr = ((wcol * 16) % 512) / 16;
    wire [4:0] raddr = ((rcol * 16) % 512) / 16;
    wire signed [15:0] rdata_blk [0:7];
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk0 (
        .clk(clk),
        .en((wen && wblk == 0) || (ren && rblk == 0)),
        .we(wen && wblk == 0),
        .addr((wen && wblk == 0) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[0])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk1 (
        .clk(clk),
        .en((wen && wblk == 1) || (ren && rblk == 1)),
        .we(wen && wblk == 1),
        .addr((wen && wblk == 1) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[1])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk2 (
        .clk(clk),
        .en((wen && wblk == 2) || (ren && rblk == 2)),
        .we(wen && wblk == 2),
        .addr((wen && wblk == 2) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[2])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk3 (
        .clk(clk),
        .en((wen && wblk == 3) || (ren && rblk == 3)),
        .we(wen && wblk == 3),
        .addr((wen && wblk == 3) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[3])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk4 (
        .clk(clk),
        .en((wen && wblk == 4) || (ren && rblk == 4)),
        .we(wen && wblk == 4),
        .addr((wen && wblk == 4) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[4])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk5 (
        .clk(clk),
        .en((wen && wblk == 5) || (ren && rblk == 5)),
        .we(wen && wblk == 5),
        .addr((wen && wblk == 5) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[5])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk6 (
        .clk(clk),
        .en((wen && wblk == 6) || (ren && rblk == 6)),
        .we(wen && wblk == 6),
        .addr((wen && wblk == 6) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[6])
    );
    imagen_sram_1p #(.DEPTH(32), .WIDTH(16), .AW(5)) u_blk7 (
        .clk(clk),
        .en((wen && wblk == 7) || (ren && rblk == 7)),
        .we(wen && wblk == 7),
        .addr((wen && wblk == 7) ? waddr : raddr),
        .wdata(wdata),
        .rdata(rdata_blk[7])
    );
    reg [31:0] rblk_q;
    always @(posedge clk) rblk_q <= rblk;
    assign rdata = rdata_blk[rblk_q];
endmodule

module imagen_top_every_op (
    input  wire clk,
    input  wire rst,
    input  wire signed [15:0] stream_in_0,
    output wire signed [15:0] stream_out_0,
    output wire frame_done
);
    reg [63:0] cycle;
    always @(posedge clk) begin
        if (rst) cycle <= 64'd0;
        else cycle <= cycle + 64'd1;
    end
    wire en_src = (cycle >= 64'd0) && (cycle < 64'd1200);
    wire [63:0] k_src = cycle - 64'd0;
    wire [31:0] y_src = k_src / 40;
    wire [31:0] x_src = k_src % 40;
    wire en_smooth = (cycle >= 64'd120) && (cycle < 64'd1320);
    wire [63:0] k_smooth = cycle - 64'd120;
    wire [31:0] y_smooth = k_smooth / 40;
    wire [31:0] x_smooth = k_smooth % 40;
    wire en_edge = (cycle >= 64'd240) && (cycle < 64'd1440);
    wire [63:0] k_edge = cycle - 64'd240;
    wire [31:0] y_edge = k_edge / 40;
    wire [31:0] x_edge = k_edge % 40;
    wire en_out = (cycle >= 64'd360) && (cycle < 64'd1560);
    wire [63:0] k_out = cycle - 64'd360;
    wire [31:0] y_out = k_out / 40;
    wire [31:0] x_out = k_out % 40;
    wire signed [15:0] out_src = stream_in_0;
    wire signed [15:0] out_smooth;
    wire signed [15:0] out_edge;
    wire signed [15:0] out_out;
    linebuf_src u_lb_src (
        .clk(clk),
        .wen(en_src),
        .wrow(y_src),
        .wcol(x_src),
        .wdata(out_src),
        .ren(1'b1),
        .rrow(y_src),
        .rcol(x_src),
        .rdata()
    );
    linebuf_smooth u_lb_smooth (
        .clk(clk),
        .wen(en_smooth),
        .wrow(y_smooth),
        .wcol(x_smooth),
        .wdata(out_smooth),
        .ren(1'b1),
        .rrow(y_smooth),
        .rcol(x_smooth),
        .rdata()
    );
    linebuf_edge u_lb_edge (
        .clk(clk),
        .wen(en_edge),
        .wrow(y_edge),
        .wcol(x_edge),
        .wdata(out_edge),
        .ren(1'b1),
        .rrow(y_edge),
        .rcol(x_edge),
        .rdata()
    );
    reg signed [15:0] sra_smooth_0 [0:8];
    stage_smooth u_smooth (.clk(clk), .en(en_smooth), .win0(sra_smooth_0), .pixel_out(out_smooth));
    reg signed [15:0] sra_edge_0 [0:8];
    reg signed [15:0] sra_edge_1 [0:1];
    stage_edge u_edge (.clk(clk), .en(en_edge), .win0(sra_edge_0), .win1(sra_edge_1), .pixel_out(out_edge));
    reg signed [15:0] sra_out_0 [0:8];
    reg signed [15:0] sra_out_1 [0:0];
    stage_out u_out (.clk(clk), .en(en_out), .win0(sra_out_0), .win1(sra_out_1), .pixel_out(out_out));
    assign stream_out_0 = out_out;
    assign frame_done = (cycle >= 64'd1560);
endmodule
